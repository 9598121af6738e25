"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import (  # noqa: E402
    Tracer, covered_length, nearest_rank, self_times, summarize, tail_percentile,
)
from workloads import WORKLOADS, make_inputs  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    assert covered_length([(1.0, 4.0), (3.0, 6.0), (8.0, 20.0)], 0.0, 10.0) == 7.0
    assert covered_length([(1.0, 4.0), (2.0, 3.0), (-5.0, -1.0)], 0.0, 10.0) == 3.0
    spans = [["p", 0.0, 10.0, -1], ["x", 1.0, 4.0, 0], ["y", 3.0, 6.0, 0]]
    assert self_times(spans)[0] == 5.0


def test_tracer_nests_spans_and_summarizes_per_name():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]))
    root = tracer.open("step")
    for _ in range(2):
        child = tracer.open("work")
        tracer.close(child)
    tracer.close(root)
    summary = summarize(tracer.spans)
    assert summary["work"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert summary["step"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}


def test_wrap_records_a_span_where_the_caller_looks_the_name_up():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = Tracer()
    tracer.wrap(mod, "inner", "layer.inner")
    tracer.wrap(mod, "outer", "layer.outer")
    assert mod.outer(1) == 4
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("layer.outer", -1), ("layer.inner", 0)]


def test_wrap_records_nested_calls_under_one_name_once():
    mod = types.SimpleNamespace()
    mod.save_model = lambda: "saved"
    mod.save_training = lambda: mod.save_model()
    tracer = Tracer()
    tracer.wrap(mod, "save_model", "checkpoint.save")
    tracer.wrap(mod, "save_training", "checkpoint.save")
    assert mod.save_training() == "saved"
    assert [s[0] for s in tracer.spans] == ["checkpoint.save"]


def test_closing_spans_out_of_order_is_an_error():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


@pytest.mark.parametrize("n, pct", [
    (20, 50.0), (39, 50.0), (40, 75.0), (100, 75.0), (999, 75.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct
    values = [float(i) for i in range(1, n + 1)]
    assert sum(v > nearest_rank(values, pct) for v in values) >= 10


def test_tail_needs_at_least_twenty_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert nearest_rank(values, 50.0) == 50.0
    assert nearest_rank(values, 90.0) == 90.0
    assert nearest_rank(values, 99.9) == 100.0


def _input_bytes(workload, seed: int, where: Path) -> dict[str, bytes]:
    make_inputs(workload, seed, where)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    workload = WORKLOADS[name]
    first = _input_bytes(workload, 3, tmp_path / "a")
    again = _input_bytes(workload, 3, tmp_path / "b")
    other = _input_bytes(workload, 4, tmp_path / "c")
    assert first and first == again
    assert first.keys() == other.keys()
    assert all(first[f] != other[f] for f in first)


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
