"""Metric definitions and their computation from one run's samples.

End-to-end metrics come from untraced runs only; per-layer metrics from
a separate traced run.  Every function here is pure: it takes what a
run measured and returns numbers, so the tests can feed it synthetic
runs.
"""

from __future__ import annotations

import statistics

import numpy as np

from perfbench.spans import LAYER_SPANS

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "SPAN_METRICS",
    "end_to_end",
    "per_layer",
    "percentile",
]

#: name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cpu_ms_per_request": "ms",
}

#: Span name -> per-layer metric (mean self time per request, ms).  The
#: ``pdm.cache.get_or_compile`` span (lookup, locking, latch waits)
#: counts toward coverage but has no metric of its own; latch waits are
#: reported from the program's own timings.
SPAN_METRICS = {
    span: f"{span}_ms" for span in LAYER_SPANS if span != "pdm.cache.get_or_compile"
}

PER_LAYER = {
    "serve.http.overhead_ms": "ms",
    "serve.service.queue_wait_p50_ms": "ms",
    "serve.service.queue_wait_tail_ms": "ms",
    "serve.service.busy_share": "ratio",
    **{metric: "ms" for metric in SPAN_METRICS.values()},
    "pdm.engine.floor_ratio": "ratio",
    "pdm.cache.hit_rate": "ratio",
    "pdm.cache.evictions": "count",
    "pdm.cache.latch_wait_ms": "ms",
    "core.parallel_ios": "count",
    "core.passes": "count",
    "core.ios_over_lower_bound": "ratio",
    "unattributed_ms": "ms",
    "trace.coverage_share": "ratio",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_share": "ratio",
}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no values."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(samples, start: float, end: float, setup_times, peak_rss_mb: float,
               cpu_seconds: float, tail_q: float) -> dict[str, float]:
    """The user-visible metrics of one untraced run."""
    ok = [s for s in samples if s.ok]
    latencies = [s.latency for s in ok]
    return {
        "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
        "latency_tail_ms": percentile(latencies, tail_q) * 1e3,
        "throughput_rps": len(ok) / (end - start),
        "ok_share": len(ok) / len(samples) if samples else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "cpu_ms_per_request": cpu_seconds / max(1, len(ok)) * 1e3,
    }


def per_layer(samples, start: float, end: float, workers: int, ledger, span_counts,
              span_cost: float, cache_before: dict, cache_after: dict, floors: dict,
              tail_q: float) -> tuple[dict[str, float], dict[str, str]]:
    """The per-layer metrics of one traced run.

    ``ledger`` maps request id -> {span name: self seconds} and
    ``span_counts`` request id -> spans recorded (see
    :func:`perfbench.spans.ledgers`); ``floors`` maps a key to its raw
    numpy gather+scatter seconds.  Span metrics average over the timed
    requests; a layer no timed request entered (the planner on a warm
    workload) averages over the set-up requests that entered it
    instead.  Returns the metrics and, per span metric, that basis
    (``timed`` or ``setup``).
    """
    ok = [s for s in samples if s.ok]
    timed = [s.body["request_id"] for s in ok]
    timed_set = set(timed)
    elapsed = [s.body["elapsed"] for s in ok]
    timings = [s.body["timings"] for s in ok]
    rows = [ledger.get(rid, {}) for rid in timed]
    setup_rows = [row for rid, row in ledger.items() if rid not in timed_set]
    m: dict[str, float] = {}
    basis: dict[str, str] = {}
    m["serve.http.overhead_ms"] = _mean(
        s.done - s.sent - t.get("queue_wait", 0.0) - e
        for s, t, e in zip(ok, timings, elapsed)
    ) * 1e3
    queue_wait = [t.get("queue_wait", 0.0) for t in timings]
    m["serve.service.queue_wait_p50_ms"] = percentile(queue_wait, 50.0) * 1e3
    m["serve.service.queue_wait_tail_ms"] = percentile(queue_wait, tail_q) * 1e3
    m["serve.service.busy_share"] = sum(elapsed) / ((end - start) * workers)
    for span, metric in SPAN_METRICS.items():
        if any(span in row for row in rows):
            m[metric] = _mean(row.get(span, 0.0) for row in rows) * 1e3
            basis[metric] = "timed"
        else:
            m[metric] = _mean(row[span] for row in setup_rows if span in row) * 1e3
            basis[metric] = "setup"
    m["pdm.engine.floor_ratio"] = _mean(
        row.get("pdm.engine.execute", 0.0) / floors[s.key] for s, row in zip(ok, rows)
    )
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    m["pdm.cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["pdm.cache.evictions"] = float(cache_after["evictions"] - cache_before["evictions"])
    m["pdm.cache.latch_wait_ms"] = _mean(t.get("latch_wait", 0.0) for t in timings) * 1e3
    reports = [s.body["report"] for s in ok]
    m["core.parallel_ios"] = _mean(r["parallel_ios"] for r in reports)
    m["core.passes"] = _mean(r["passes"] for r in reports)
    m["core.ios_over_lower_bound"] = _mean(
        r["parallel_ios"] / r["bounds"]["theorem3_lower_bound"] for r in reports
    )
    covered = [sum(row.values()) for row in rows]
    m["unattributed_ms"] = _mean(e - c for e, c in zip(elapsed, covered)) * 1e3
    m["trace.coverage_share"] = sum(covered) / sum(elapsed) if elapsed else 0.0
    m["loadgen.late_p99_ms"] = percentile([s.late for s in samples], 99.0) * 1e3
    m["trace.overhead_share"] = (
        span_cost * sum(span_counts.get(rid, 0) for rid in timed) / sum(elapsed)
        if elapsed else 0.0
    )
    return m, basis
