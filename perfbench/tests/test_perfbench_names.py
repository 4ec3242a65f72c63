"""The metric names the benchmark prints are the ones BENCHMARK.json declares."""

from __future__ import annotations

import json
from pathlib import Path

from perfbench import metrics, run, spans, workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_workloads_are_the_ones_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_metric_tables_match_benchmark_json():
    assert list(_declared("end_to_end").items()) == list(metrics.END_TO_END.items())
    assert list(_declared("per_layer").items()) == list(metrics.PER_LAYER.items())
    assert "setup_s" in metrics.END_TO_END


def test_printed_metrics_are_the_declared_ones(traced_run):
    samples, start, end = traced_run["samples"], traced_run["start"], traced_run["end"]
    e2e = metrics.end_to_end(samples, start, end, [0.5, 0.4, 0.6], 100.0, 1.0, 90.0)
    line = run.result_line(True, len(samples), 0, e2e, metrics.END_TO_END)
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["metrics"] == {
        name: {"value": e2e[name], "unit": unit}
        for name, unit in _declared("end_to_end").items()
    }
    assert all(v > 0 for v in e2e.values())

    rows, counts = spans.ledgers(traced_run["spans"])
    floors = {s.key: 1e-3 for s in samples}
    layer, basis = metrics.per_layer(
        samples, start, end, 2, rows, counts, 1e-6, traced_run["cache_before"],
        traced_run["cache_after"], floors, 90.0,
    )
    line = run.result_line(True, len(samples), 0, layer, metrics.PER_LAYER)
    assert set(line["metrics"]) == set(_declared("per_layer"))
    assert set(basis) == set(metrics.SPAN_METRICS.values())
