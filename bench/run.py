"""Benchmark of the proactivenet batch estimator, run from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

One process runs a workload's fixed operation list in passes for
`--seconds`, checks every output, and prints as its last stdout line one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0  end-to-end metrics, measured untraced: setup_s, wall_s,
           usable_per_s, peak_rss_mb.
--trace 1  per-layer metrics: half the time untraced, half with a span
           around every layer's public entry points (medians over the
           traced passes), plus the tracing overhead.

Pass seeds derive from --seed, so the same seed gives the same inputs.
Set-up is sampled in short-lived child processes as well, because a
process imports its modules only once.  Results with the environment, and
the spans of a traced run, are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

from stats import quartiles
from tracing import Tracer, layer_metrics, package_targets, per_layer_units

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("figures", "long-paths", "oracle")
SETUP_CHILDREN = 4
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "usable_per_s": "1/s", "peak_rss_mb": "MB"}


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc in this process's environment; call before
    numpy is imported.  Returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(cap: int) -> dict:
    import numpy
    import scipy

    import proactivenet

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "proactivenet": proactivenet.__version__,
        "git_commit": git_commit(),
        "blas_threads_cap": cap,
        "blas_env": {v: os.environ[v] for v in BLAS_VARS},
    }


def set_up(name: str):
    """Import the package and the workload, then make one untimed warm-up
    call.  Returns (workload module, workload, seconds taken)."""
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    wl = workloads.make(name, OUT)
    wl.setup()
    return workloads, wl, time.perf_counter() - t0


def child_setup_seconds(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(wl, seed: int, first: int, seconds: float, tracer=None, on_pass=None):
    """Run passes until `seconds` have elapsed (at least one).  Returns the
    pass times and outcomes; `on_pass(spans, outcome)` sees each traced pass."""
    times, outcomes = [], []
    index = first
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        inputs = wl.prepare(pass_seed(seed, index))

        def mark(op, i=index):
            if tracer is not None:
                tracer.op = f"{i}:{op}"

        if tracer is not None:
            first_span = len(tracer.spans)
            tracer.install()
        try:
            t0 = time.perf_counter()
            raw = wl.execute(inputs, mark)
            times.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = wl.verify(inputs, raw)
        outcomes.append(outcome)
        if on_pass is not None:
            on_pass(tracer.spans[first_span:], outcome)
        index += 1
    return times, outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "proactivenet" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        _, wl, seconds = set_up(args.workload)
        wl.close()
        print(repr(seconds))
        return 0

    workloads, wl, main_setup = set_up(args.workload)
    try:
        return report(args, workloads, wl, main_setup, environment(cap))
    finally:
        wl.close()


def report(args, workloads, wl, main_setup: float, env: dict) -> int:
    passes: dict[str, list[float]] = {}
    outcomes = []
    if args.trace == 0:
        setups = [main_setup] + [child_setup_seconds(args.workload) for _ in range(SETUP_CHILDREN)]
        times, outs = run_passes(wl, args.seed, 0, args.seconds)
        passes["untraced"] = times
        outcomes += outs
        usable = sum(o.usable for o in outs) / len(outs)
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(times),
            "usable_per_s": usable / median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        extra = {"setup_samples_s": setups}
    else:
        pkg = SimpleNamespace(**{
            m: importlib.import_module(f"proactivenet.{m}")
            for m in ("cli", "sim", "traffic", "sched", "oracle", "analytic")
        })
        tracer = Tracer(package_targets(pkg), vars(pkg).values())
        chain_states = list(workloads.CHAIN_STATES)
        per_pass: list[dict] = []

        def on_pass(spans, outcome):
            m = layer_metrics(spans, chain_states)
            m["cli.bytes_written"] = outcome.bytes_written
            per_pass.append(m)

        half = args.seconds / 2
        plain, outs = run_passes(wl, args.seed, 0, half)
        outcomes += outs
        traced, outs = run_passes(wl, args.seed, len(plain), half, tracer, on_pass)
        outcomes += outs
        passes["untraced"], passes["traced"] = plain, traced
        units = per_layer_units(chain_states)
        per_pass_names = [n for n in units if n != "tracing_overhead_s"]
        metrics = {n: median(m[n] for m in per_pass) for n in per_pass_names}
        metrics["tracing_overhead_s"] = median(traced) - median(plain)
        extra = {}
        # one file per workload, so repeated traced runs do not pile up
        with gzip.open(OUT / f"{args.workload}.spans.jsonl.gz", "wt") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(vars(s)) + "\n")

    ops = [op for o in outcomes for op in o.ops] + wl.final_checks()
    failures = [f"{op.name}: {op.error}" for op in ops if op.error is not None]
    attempted, failed = len(ops), len(failures)
    for f in failures[:10]:
        print(f"check failed: {f}", file=sys.stderr)

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "passes": {k: {"count": len(v), "quartiles_s": quartiles(v), "times_s": v}
                   for k, v in passes.items()},
        "error_rate": failed / attempted, "failures": failures, **extra,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**summary, "metrics": metrics}, fh, indent=1)
    print("environment " + json.dumps(env))
    for k, v in passes.items():
        q1, q2, q3 = quartiles(v)
        print(f"{args.workload} {k} passes={len(v)} pass_s q1={q1:.4f} median={q2:.4f} q3={q3:.4f}")
    print(f"{args.workload} error_rate={failed}/{attempted}={failed / attempted:.4g} (ratio)")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
