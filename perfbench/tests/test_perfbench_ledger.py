"""Spans, self times and the per-request ledger."""

from __future__ import annotations

import pytest

from repro.pdm.system import ParallelDiskSystem
from repro.serve import requests

from perfbench import metrics, spans


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def test_self_times_subtract_children():
    spans_ = [
        (0, -1, "outer", 0.0, 10.0, "r1", 1),
        (1, 0, "inner", 2.0, 5.0, "r1", 1),
        (2, 1, "leaf", 3.0, 4.0, "r1", 1),
        (3, 0, "inner", 6.0, 7.0, "r1", 1),
    ]
    assert spans.self_times(spans_) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_a_span_outside_any_scope_belongs_to_the_next_request_on_its_thread():
    spans_ = [
        (0, -1, "pdm.system.reset", 0.0, 1.0, None, 7),
        (1, -1, "pdm.engine.execute", 1.0, 3.0, "r2", 7),
        (2, -1, "pdm.system.reset", 0.5, 0.7, None, 8),
        (3, -1, "pdm.engine.execute", 0.8, 0.9, "r3", 8),
        (4, -1, "pdm.system.reset", 4.0, 5.0, None, 7),  # no later request
    ]
    rows, counts = spans.ledgers(spans_)
    assert rows == {
        "r2": {"pdm.system.reset": 1.0, "pdm.engine.execute": 2.0},
        "r3": {"pdm.system.reset": pytest.approx(0.2), "pdm.engine.execute": pytest.approx(0.1)},
    }
    assert counts == {"r2": 2, "r3": 2}


def test_install_restores_every_patched_entry_point():
    before = (
        ParallelDiskSystem.reset, ParallelDiskSystem.verify_permutation,
        requests.make_permutation, requests.hashlib,
    )
    undo = spans.install(spans.SpanRecorder())
    assert ParallelDiskSystem.reset is not before[0]
    undo()
    after = (
        ParallelDiskSystem.reset, ParallelDiskSystem.verify_permutation,
        requests.make_permutation, requests.hashlib,
    )
    assert after == before


def test_every_timed_request_has_a_ledger(traced_run):
    rows, _ = spans.ledgers(traced_run["spans"])
    timed = [s.body["request_id"] for s in traced_run["samples"]]
    assert timed and all(rid in rows for rid in timed)
    for rid in timed:
        for name in ("pdm.system.reset", "serve.requests.prepare", "perms.classify",
                     "pdm.engine.execute", "pdm.system.verify", "core.runner.bounds",
                     "serve.requests.digest"):
            assert rows[rid][name] > 0.0, (rid, name)


def test_self_times_plus_unattributed_equal_elapsed(traced_run):
    all_spans = traced_run["spans"]
    rows, counts = spans.ledgers(all_spans)
    own = spans.self_times(all_spans)
    samples = [s for s in traced_run["samples"] if s.ok]
    for s in samples:
        rid, elapsed = s.body["request_id"], s.body["elapsed"]
        scoped = [sp for sp in all_spans if sp[5] == rid]
        # Self times never go negative and add up to the time the
        # request's spans cover, counted once.
        assert all(own[sp[0]] >= -1e-9 for sp in scoped)
        assert sum(own[sp[0]] for sp in scoped) == pytest.approx(
            _union((sp[3], sp[4]) for sp in scoped), abs=1e-9
        )
        covered = sum(rows[rid].values())
        assert 0.0 < covered <= elapsed
        unattributed = elapsed - covered
        assert covered + unattributed == pytest.approx(elapsed)
    floors = {s.key: 1e-3 for s in samples}
    values, _ = metrics.per_layer(
        traced_run["samples"], traced_run["start"], traced_run["end"], 2, rows,
        counts, 1e-6, traced_run["cache_before"], traced_run["cache_after"],
        floors, 90.0,
    )
    expected = sum(
        s.body["elapsed"] - sum(rows[s.body["request_id"]].values()) for s in samples
    ) / len(samples)
    assert values["unattributed_ms"] == pytest.approx(expected * 1e3)
    assert 0.0 < values["trace.coverage_share"] <= 1.0
