"""Spans around the package's public entry points, recorded from outside.

`Tracer.install` replaces module globals (and one method) of the package
with wrappers that record one span per call: name, layer, start, end,
parent span and the id of the benchmark operation that caused it.  Every
module namespace that holds the same function object is patched, so calls
through `from x import f` aliases are seen too.  Nothing in the package
knows about the tracer; `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

SIM_POLICIES = ("reactive", "edf", "selfish", "dynamic", "multicast", "pi2")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans}


class Tracer:
    """Records spans while installed over `targets`, tuples of (owner,
    attribute, span name, layer, info); see `install`."""

    def __init__(self, targets=(), namespaces=(), clock=time.perf_counter):
        self.targets = list(targets)
        self.namespaces = list(namespaces)
        self.clock = clock
        self.spans: list[Span] = []
        self.op = ""
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str, info=None):
        """`fn` recording a span per call; `info(args, result)` adds fields.

        A call that raises records no span: the runner counts its
        operation as failed instead.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
            extra = info(args, result) if info is not None else {}
            self.spans.append(Span(sid, name, layer, start, end, parent, self.op, extra))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target.  A function owned by a module is replaced in
        each of `namespaces` that holds it; a method only on its class."""
        for owner, attr, name, layer, info in self.targets:
            orig = vars(owner)[attr]
            traced = self.wrap(orig, name, layer, info)
            holders = [owner] if inspect.isclass(owner) else self.namespaces
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, traced)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)


def _public_functions(module) -> list[str]:
    return [
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


def package_targets(pkg) -> list[tuple]:
    """Layer boundaries of the package `pkg` (a namespace of its modules)."""
    cli, sim, traffic = pkg.cli, pkg.sim, pkg.traffic
    sched, oracle, analytic = pkg.sched, pkg.oracle, pkg.analytic

    def array_bytes(args, result):
        return {"bytes": int(result.nbytes)}

    def path_info(args, result):
        cfg = args[0]
        return {"policy": cfg.policy, "slots": cfg.slots}

    def estimate_info(args, result):
        return {"estimates": [(e.p_hat, e.stderr) for e in result.values()]}

    def chain_info(args, result):
        return {"states": len(result.states), "matrix_bytes": int(result.transition.nbytes)}

    def solve_info(args, result):
        return {"states": len(args[0].states)}

    targets = [
        (cli, "main", "cli.main", "cli", None),
        (sim, "sweep_capacity", "sim.sweep_capacity", "sim", None),
        (sim, "estimate_outage", "sim.estimate_outage", "sim", estimate_info),
        (sim, "run_path", "sim.run_path", "sim", path_info),
    ]
    for name in ("unicast_counts", "prediction_error_counts", "multicast_presence"):
        targets.append((traffic, name, f"traffic.{name}", "traffic", array_bytes))
    targets += [(sched, n, f"sched.{n}", "sched", None) for n in _public_functions(sched)]
    infos = {"build_edf_chain": chain_info}
    targets += [
        (oracle, n, f"oracle.{n}", "oracle", infos.get(n)) for n in _public_functions(oracle)
    ]
    targets.append(
        (oracle.TruncatedChain, "stationary", "oracle.stationary", "oracle", solve_info)
    )
    targets += [
        (analytic, n, f"analytic.{n}", "analytic", None) for n in _public_functions(analytic)
    ]
    return targets


def per_layer_units(chain_states: list[int]) -> dict[str, str]:
    """Unit of every per-layer metric of one traced pass, in report order."""
    units = {
        "cli.calls": "count", "cli.self_s": "s", "cli.bytes_written": "bytes",
        "traffic.calls": "count", "traffic.busy_s": "s", "traffic.bytes": "bytes",
        "sched.calls": "count", "sched.busy_s": "s",
    }
    units.update({f"sim.{p}.slots_per_s": "slots/s" for p in SIM_POLICIES})
    units.update({
        "sim.run_path.self_s": "s", "sim.slots": "count", "sim.paths": "count",
        "sim.estimate.self_s": "s", "sim.zero_estimates": "count",
        "sim.rel_err_p50": "ratio", "sim.wnv_p50": "s",
    })
    units.update({f"oracle.build_s.n{n}": "s" for n in chain_states})
    units.update({f"oracle.solve_s.n{n}": "s" for n in chain_states})
    units.update({
        "oracle.states": "count", "oracle.matrix_bytes": "bytes", "oracle.bounds_s": "s",
        "analytic.calls": "count", "analytic.busy_s": "s", "tracing_overhead_s": "s",
    })
    return units


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], chain_states: list[int]) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass.

    A layer's calls and busy time count its entry spans only, the ones
    whose parent lies in another layer, so nested calls inside one layer
    are not counted twice.  Layers a pass never enters read 0.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def entries(layer):
        out = []
        for s in spans:
            parent = by_id.get(s.parent)
            if s.layer == layer and (parent is None or parent.layer != layer):
                out.append(s)
        return out

    def named(name):
        return [s for s in spans if s.name == name]

    m: dict[str, float] = {}
    for layer in ("cli", "traffic", "sched", "analytic"):
        e = entries(layer)
        m[f"{layer}.calls"] = len(e)
        m[f"{layer}.busy_s"] = sum(s.duration for s in e)
    m["cli.self_s"] = sum(own[s.id] for s in spans if s.layer == "cli")
    m["traffic.bytes"] = sum(s.info["bytes"] for s in spans if s.layer == "traffic")

    paths = named("sim.run_path")
    for policy in SIM_POLICIES:
        mine = [s for s in paths if s.info["policy"] == policy]
        busy = sum(s.duration for s in mine)
        m[f"sim.{policy}.slots_per_s"] = (
            sum(s.info["slots"] for s in mine) / busy if busy > 0 else 0.0
        )
    m["sim.run_path.self_s"] = sum(own[s.id] for s in paths)
    m["sim.slots"] = sum(s.info["slots"] for s in paths)
    m["sim.paths"] = len(paths)
    estimates = named("sim.estimate_outage")
    m["sim.estimate.self_s"] = sum(own[s.id] for s in estimates)
    rel, wnv, zeros = [], [], 0
    for s in estimates:
        for p_hat, stderr in s.info["estimates"]:
            if p_hat == 0.0:
                zeros += 1
                continue
            r = stderr / p_hat
            rel.append(r)
            wnv.append(r * r * s.duration)
    m["sim.zero_estimates"] = zeros
    m["sim.rel_err_p50"] = _median_or_zero(rel)
    m["sim.wnv_p50"] = _median_or_zero(wnv)

    builds = named("oracle.build_edf_chain")
    solves = named("oracle.stationary")
    for n in chain_states:
        m[f"oracle.build_s.n{n}"] = sum(s.duration for s in builds if s.info["states"] == n)
        m[f"oracle.solve_s.n{n}"] = sum(s.duration for s in solves if s.info["states"] == n)
    m["oracle.states"] = sum(s.info["states"] for s in builds)
    m["oracle.matrix_bytes"] = sum(s.info["matrix_bytes"] for s in builds)
    m["oracle.bounds_s"] = sum(s.duration for s in named("oracle.exact_event_bounds"))
    return m
