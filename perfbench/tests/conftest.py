"""A small traced in-process run shared by the benchmark's tests."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.pdm.geometry import DiskGeometry
from repro.serve import PermutationService, request_from_dict, warm_service

from perfbench import spans, workloads
from perfbench.loops import closed_loop

GEOMETRY = DiskGeometry(N=2**10, B=8, D=4, M=2**7)


@pytest.fixture(scope="session")
def traced_run():
    """Warm six keys, then a 0.3 s closed loop over twelve, all traced."""
    keys = workloads.http_keys()[:12]
    recorder = spans.SpanRecorder()
    undo = spans.install(recorder)
    try:
        with PermutationService(GEOMETRY, workers=2) as service:
            warm_service(service, [request_from_dict(k.request_dict()) for k in keys[:6]])
            before = asdict(service.cache_info())
            samples, start, end = closed_loop(
                service, lambda i: keys[i % len(keys)], clients=2, seconds=0.3
            )
            after = asdict(service.cache_info())
    finally:
        undo()
    return {
        "samples": samples, "start": start, "end": end, "spans": recorder.spans,
        "cache_before": before, "cache_after": after,
    }
