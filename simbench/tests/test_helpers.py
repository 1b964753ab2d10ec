"""Unit tests for the benchmark's own helpers (no toolchain needed).

    python3 -m pytest simbench/tests -q
"""

import json
import statistics
from pathlib import Path

import pytest

import run
from summary import OpTally, check_models, quartiles
from tracing import RunMeter, Tracer
from workloads import compute_reference, wrap32


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    def top():
        clock.now += 3.0
        traced_middle()

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_middle = tracer.wrap(middle, "middle")
    tracer.wrap(top, "top")()

    assert tracer.self_s == {"leaf": 4.0, "middle": 1.5, "top": 3.0}
    assert tracer.calls == {"leaf": 2, "middle": 1, "top": 1}
    # self times partition the outermost span exactly
    assert sum(tracer.self_s.values()) == clock.now


def test_same_layer_spans_share_totals_and_nest():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 1.0

    traced_inner = tracer.wrap(inner, "cache")

    def outer():
        clock.now += 2.0
        traced_inner()

    tracer.wrap(outer, "cache")()
    assert tracer.self_s == {"cache": 3.0}
    assert tracer.calls == {"cache": 2}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "boom")()
    tracer.wrap(lambda: None, "after")()
    assert tracer.self_s == {"boom": 1.0, "after": 0.0}
    assert tracer._stack == []


def test_patch_wraps_a_class_method_and_keeps_binding():
    class Component:
        def tick(self, cycle):
            return cycle + 1

    tracer = Tracer(FakeClock())
    tracer.patch(Component, "tick", "tcu")
    assert Component().tick(4) == 5
    assert tracer.calls == {"tcu": 1}


def test_run_meter_times_and_sums_runs():
    clock = FakeClock()
    meter = RunMeter(clock)

    class Result:
        cycles, instructions = 10, 7

    def functional_run(sim):
        clock.now += 0.25
        return Result()

    clock.now = 5.0
    metered = meter.wrap_functional(functional_run)
    metered(object())
    metered(object())
    assert meter.first_run_at == 5.0
    assert meter.functional_s == 0.5
    assert meter.functional_instructions == 14


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        quartiles([])


def _op(name, ok=True, model=(10, 20)):
    return {"name": name, "ok": ok, "reason": "" if ok else "bad",
            "model": list(model)}


def test_failure_counting_and_determinism_check():
    tally = OpTally()
    reference = {}
    first = [_op("bfs"), _op("list_ranking", ok=False)]
    for op in first:
        tally.record(op["ok"], op["reason"])
    check_models(tally, reference, first, "repeat 1")
    assert (tally.attempted, tally.failed) == (2, 1)
    # a failed op does not become the reference
    assert reference == {"bfs": [10, 20]}

    second = [_op("bfs", model=(11, 20)), _op("list_ranking")]
    for op in second:
        tally.record(op["ok"], op["reason"])
    check_models(tally, reference, second, "repeat 2")
    # the cycle mismatch fails the op that passed its own checks
    assert (tally.attempted, tally.failed) == (4, 2)
    assert "bfs simulated [11, 20], reference [10, 20]" in tally.reasons[-1]


def test_layer_metric_names():
    from child import layer_metric
    assert layer_metric("tcu", "s") == "tcu.self_s"
    assert layer_metric("tcu", "calls") == "tcu.calls"
    assert layer_metric("xmtc.parse", "s") == "xmtc.parse_s"
    assert layer_metric("xmtc.parse", "calls") == "xmtc.parse_calls"


def test_wrap32_and_compute_reference():
    assert wrap32(0x7FFFFFFF + 1) == -0x80000000
    assert wrap32(-1) == -1
    assert wrap32(1 << 32) == 0
    # zero iterations leave the seed value untouched
    assert compute_reference(5, 0) == 5
    value = compute_reference(1, 2000)
    assert -(1 << 31) <= value < (1 << 31)


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(run.WORKLOADS)
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_per_layer_reports_every_metric_for_a_traced_run():
    r = run.Run(Path("inputs.json"))
    r.records = [{"wall_s": 2.0}]
    r.traced = [{"wall_s": 5.0, "layers": {"tcu.ticks": 8}}]
    series = run.per_layer(r)
    assert set(series) == {name for name, _ in run.PER_LAYER}
    assert all(len(values) == 1 for values in series.values())
    assert series["trace.overhead"] == [2.5]
    assert series["tcu.ticks"] == [8]


def test_host_scale_averages_speed_over_every_kernel_sample():
    ref = run.REFERENCE_KERNEL_S
    # a run that saw the host at reference speed half the time and at
    # twice that speed the other half ran at 1.5x reference speed
    records = [{"kernel_s": [ref, ref / 2]}, {"kernel_s": [ref / 2, ref]}]
    assert run.host_scale(records) == pytest.approx(1.5)
    record = {
        "cycle_s": 2.0, "cycles": 300, "instructions": 600,
        "functional_s": 1.0, "functional_instructions": 90,
        "functional_bracketed_s": 0.0, "functional_ref_s": 0.0,
        "cycle_bracketed_s": 0.0, "cycle_ref_s": 0.0, "ops": [{}],
        "op_s": 4.0, "wall_s": 5.0, "setup_s": 1.0, "peak_rss_mb": 9.0,
    }
    # the functional run and half the cycle time were bracketed: their
    # reference seconds stand; the other cycle second scales by 1.5
    bracketed = dict(record, functional_bracketed_s=1.0, functional_ref_s=0.6,
                     cycle_bracketed_s=1.0, cycle_ref_s=0.5)
    series = run.end_to_end([record, bracketed], scale=1.5)
    assert series["sim_cycles_per_s"] == [pytest.approx(100.0),
                                          pytest.approx(150.0)]
    assert series["wall_s"] == [pytest.approx(7.5)] * 2
    assert series["peak_rss_mb"] == [9.0] * 2
    # runs timed between host samples keep their own scaling
    assert series["func_instr_per_s"] == [pytest.approx(60.0),
                                          pytest.approx(150.0)]
