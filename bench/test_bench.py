"""Tests of the benchmark's own arithmetic and checkers.

Run from the repository root: python3 -m pytest bench -q
"""

import statistics
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import (  # noqa: E402
    RowModel,
    SCHEMA,
    check_bounds,
    check_csv,
    check_rerun,
    check_sandwich,
    check_value,
    exact_band,
)
from proactivenet.analytic import poisson_tail  # noqa: E402
from stats import quartiles  # noqa: E402
from tracing import Span, Tracer, covered, layer_metrics, self_times  # noqa: E402

# --- self time --------------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "cli.main", "cli", 0.0, 10.0, None, "op"),
        Span(1, "sim.estimate_outage", "sim", 1.0, 9.0, 0, "op"),
        Span(2, "sim.run_path", "sim", 1.0, 4.0, 1, "op"),
        Span(3, "sim.run_path", "sim", 5.0, 8.0, 1, "op"),
        Span(4, "traffic.unicast_counts", "traffic", 1.0, 1.5, 2, "op"),
    ]
    own = self_times(spans)
    assert own == {0: 2.0, 1: 2.0, 2: 2.5, 3: 3.0, 4: 0.5}


def _fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_tracer_records_parents_and_restores_every_alias():
    mod = types.ModuleType("fake")
    alias = types.ModuleType("alias")

    def inner():
        return "x"

    def outer():
        return mod.inner() + mod.inner()

    inner.__module__ = outer.__module__ = "fake"
    mod.inner, mod.outer = inner, outer
    alias.outer = outer
    tracer = Tracer(
        [(mod, "inner", "fake.inner", "fake", None),
         (mod, "outer", "fake.outer", "fake", lambda args, res: {"len": len(res)})],
        [mod, alias],
        clock=_fake_clock(),
    )
    tracer.install()
    tracer.op = "p0"
    assert alias.outer() == "xx"
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer and alias.outer is outer
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["fake.outer"]
    assert top.parent is None and top.info == {"len": 2} and top.op == "p0"
    assert [s.parent for s in by_name["fake.inner"]] == [top.id, top.id]
    assert self_times(tracer.spans)[top.id] == top.duration - 2.0


def test_layer_metrics_of_a_hand_built_pass():
    est = [(0.02, 0.002), (0.0, 0.0)]
    spans = [
        Span(0, "cli.main", "cli", 0.0, 10.0, None, "op"),
        Span(1, "sim.estimate_outage", "sim", 1.0, 9.0, 0, "op", {"estimates": est}),
        Span(2, "sim.run_path", "sim", 1.0, 4.0, 1, "op", {"policy": "edf", "slots": 300}),
        Span(3, "sim.run_path", "sim", 5.0, 8.0, 1, "op", {"policy": "reactive", "slots": 600}),
        Span(4, "traffic.unicast_counts", "traffic", 1.0, 2.0, 2, "op", {"bytes": 800}),
        Span(5, "oracle.build_edf_chain", "oracle", 10.0, 11.0, None, "op",
             {"states": 22, "matrix_bytes": 3872}),
        Span(6, "analytic.poisson_tail", "analytic", 11.0, 11.5, None, "op"),
        Span(7, "analytic.x_m", "analytic", 11.1, 11.2, 6, "op"),
    ]
    m = layer_metrics(spans, [22, 400])
    assert m["cli.calls"] == 1 and m["cli.self_s"] == 2.0
    assert m["traffic.calls"] == 1 and m["traffic.busy_s"] == 1.0 and m["traffic.bytes"] == 800
    assert m["sim.edf.slots_per_s"] == 100.0 and m["sim.reactive.slots_per_s"] == 200.0
    assert m["sim.multicast.slots_per_s"] == 0.0
    assert m["sim.run_path.self_s"] == 5.0 and m["sim.estimate.self_s"] == 2.0
    assert m["sim.slots"] == 900 and m["sim.paths"] == 2 and m["sim.zero_estimates"] == 1
    assert m["sim.rel_err_p50"] == pytest.approx(0.1)
    assert m["sim.wnv_p50"] == pytest.approx(0.01 * 8.0)
    assert m["oracle.build_s.n22"] == 1.0 and m["oracle.build_s.n400"] == 0.0
    assert m["oracle.states"] == 22 and m["oracle.matrix_bytes"] == 3872
    # nested analytic calls count once, as one entry into the layer
    assert m["analytic.calls"] == 1 and m["analytic.busy_s"] == 0.5
    assert m["sched.calls"] == 0


# --- quartiles ----------------------------------------------------------------


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]) == (2.25, 4.5, 6.75)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        quartiles([])


# --- checkers -----------------------------------------------------------------

REACTIVE = RowModel("reactive", "linear", 0.5, None, slots=1000, paths=20, warmup=100)


def _csv(*rows: str, header: str = ",".join(SCHEMA)) -> str:
    return "\n".join([header, *rows]) + "\n"


def test_exact_band_of_a_reactive_row_is_the_poisson_tail():
    lo, hi, counted = exact_band(REACTIVE, 4)
    assert lo == hi == poisson_tail(2.0, 4) and counted == 900 * 20


def test_check_csv_accepts_a_row_on_the_exact_tail():
    exact = poisson_tail(2.0, 4)
    text = _csv(f"f:nonpred,4,default,outage,{exact + 3 * 0.001!r},0.001,7")
    assert check_csv(text, 7, lambda row: REACTIVE) == []


def test_check_csv_rejects_a_value_above_one():
    text = _csv("f:x,4,default,outage,1.5,0.01,7")
    (err,) = check_csv(text, 7, lambda row: None)
    assert "outside [0, 1]" in err


def test_check_csv_rejects_a_reactive_row_ten_stderr_from_the_tail():
    exact = poisson_tail(2.0, 4)
    text = _csv(f"f:nonpred,4,default,outage,{exact + 10 * 0.001!r},0.001,7")
    (err,) = check_csv(text, 7, lambda row: REACTIVE)
    assert "stderr" in err


def test_check_csv_rejects_bad_header_negative_stderr_and_wrong_seed():
    assert check_csv(_csv(header="a,b"), 7, lambda row: None)
    assert check_csv(_csv("f:x,4,default,outage,0.1,-0.01,7"), 7, lambda row: None)
    assert check_csv(_csv("f:x,4,default,outage,0.1,0.01,8"), 7, lambda row: None)


def test_zero_rows_pass_only_when_the_exact_bound_expects_few_outages():
    assert check_value(0.0, 0.0, 1e-5, 0.1, 18000) is None  # 0.18 expected
    assert check_value(0.0, 0.0, 1e-3, 0.1, 18000) is not None  # 18 expected
    assert check_value(0.05, 0.01, 0.01, 0.02, 18000) is None  # 3 stderr above
    assert check_value(0.08, 0.01, 0.01, 0.02, 18000) is not None  # 6 stderr above


def test_an_underestimated_stderr_is_floored_by_the_binomial_one():
    # exact tail 0.1158 over 159200 slots: binomial stderr 8.0e-4
    assert check_value(0.1142, 1.9e-4, 0.1158, 0.1158, 159200) is None
    assert check_value(0.1100, 1.9e-4, 0.1158, 0.1158, 159200) is not None


def test_rerun_with_different_bytes_is_rejected():
    assert check_rerun(b"a,b\n1,2\n", b"a,b\n1,2\n") is None
    assert check_rerun(b"a,b\n1,2\n", b"a,b\n1,3\n") is not None


def test_exact_bound_checks():
    assert check_sandwich(0.01, 0.001, 0.1, 0.0) is None
    assert check_sandwich(0.2, 0.001, 0.1, 0.0) is not None
    assert check_bounds(0.001, 0.1) is None
    assert check_bounds(0.2, 0.1) is not None
    assert check_bounds(0.001, 1.5) is not None
