"""Importing the package and running any command loads no scipy module.
The compiled kernels (slot loop and Poisson sampler) are built and loaded
by the first simulation, not by an import, `oracle-check` or `analytic`.

The checks run in a fresh interpreter, because the other test modules
import scipy and load the kernel themselves.
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

def state(code):
    return [code, scipy_modules(), sched._lib is not None]


report = {"import": state(0)}
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
for name in sys.argv[2].split(","):
    if name == "control":  # loads scipy on purpose
        import scipy.special

        report[name] = state(0)
        continue
    with contextlib.redirect_stdout(io.StringIO()):
        report[name] = state(cli.main(RUNS[name]))
print(json.dumps(report))
"""


def run_script(tmp_path_factory, stages):
    """Per stage, run in this order in one fresh interpreter: the exit code,
    the scipy modules loaded and whether the slot loop is loaded."""
    src = str(Path(proactivenet.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path_factory.mktemp("imports")),
         ",".join(stages)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    # the control last: it loads scipy
    return run_script(tmp_path_factory, [
        "simulate", "sweep-pi2", "reproduce-figure", "oracle-check", "analytic", "control",
    ])


@pytest.fixture(scope="module")
def kernel_report(tmp_path_factory):
    # the commands that never simulate first: a simulation loads the kernel
    return run_script(tmp_path_factory, ["oracle-check", "analytic", "simulate"])


@pytest.mark.parametrize(
    "stage", ["import", "simulate", "sweep-pi2", "reproduce-figure", "oracle-check", "analytic"]
)
def test_no_scipy_module_is_loaded(report, stage):
    code, loaded, _ = report[stage]
    assert code == 0
    assert loaded == []


@pytest.mark.parametrize("stage", ["oracle-check", "analytic"])
def test_scipy_commands_still_run(report, stage):
    # the two commands that loaded scipy before their tail and root were ours
    assert report[stage][0] == 0


def test_oracle_check_loads_no_sparse_module(report):
    # the chain is solved densely, by GTH
    assert [m for m in report["oracle-check"][1] if m.startswith("scipy.sparse")] == []


def test_report_lists_scipy_loaded_on_purpose(report):
    # and so the empty lists above are not an artefact of the check
    code, loaded, _ = report["control"]
    assert code == 0
    assert "scipy.special" in loaded


@pytest.mark.parametrize("stage", ["import", "oracle-check", "analytic"])
def test_no_kernel_is_loaded(kernel_report, stage):
    code, _, loaded = kernel_report[stage]
    assert code == 0
    assert not loaded


def test_simulation_loads_the_kernel(kernel_report):
    # and so the checks above are not an artefact of the check
    code, _, loaded = kernel_report["simulate"]
    assert code == 0 and loaded
