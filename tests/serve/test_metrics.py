"""Unit tests for the stdlib metrics registry and the service bridge.

The load-bearing property is *exact reconciliation*: the counters on a
rendered /metrics page must agree with a ``stats()`` snapshot to the
integer, because the bridge copies one lock-consistent snapshot rather
than re-counting events.  The registry semantics (labels, cumulative
buckets, render/parse round-trip) are what that guarantee rides on.
"""

import pytest

from repro.errors import InjectedFault, ValidationError
from repro.pdm.geometry import DiskGeometry
from repro.serve import (
    FaultPlan,
    MetricsRegistry,
    PermutationRequest,
    PermutationService,
    ServiceMetrics,
    parse_prometheus_text,
    synthetic_mix,
)
from repro.serve.metrics import sample_name

GEOMETRY = dict(N=2**10, B=2**3, D=2**2, M=2**7)


@pytest.fixture
def geometry():
    return DiskGeometry(**GEOMETRY)


# --------------------------------------------------------------------------
# registry primitives
# --------------------------------------------------------------------------

class TestCounter:
    def test_inc_and_value(self):
        c = MetricsRegistry().counter("x_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_negative_inc_rejected(self):
        c = MetricsRegistry().counter("x_total", "help")
        with pytest.raises(ValidationError):
            c.inc(-1)

    def test_set_total_overwrites(self):
        c = MetricsRegistry().counter("x_total", "help")
        c.inc(5)
        c.set_total(3)
        assert c.value() == 3.0

    def test_labeled_series_are_independent(self):
        c = MetricsRegistry().counter("x_total", "help", ("kind",))
        c.inc(kind="a")
        c.inc(2, kind="b")
        assert c.value(kind="a") == 1.0
        assert c.value(kind="b") == 2.0

    def test_wrong_labels_rejected(self):
        c = MetricsRegistry().counter("x_total", "help", ("kind",))
        with pytest.raises(ValidationError):
            c.inc(other="a")
        with pytest.raises(ValidationError):
            c.inc()


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth", "help")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value() == 3.0


class TestHistogram:
    def test_cumulative_buckets(self):
        h = MetricsRegistry().histogram("h", "help", buckets=(1.0, 5.0))
        for v in (0.5, 0.7, 3.0, 100.0):
            h.observe(v)
        samples = dict(h.samples())
        assert samples['h_bucket{le="1"}'] == 2
        assert samples['h_bucket{le="5"}'] == 3
        assert samples['h_bucket{le="+Inf"}'] == 4
        assert samples["h_count"] == 4
        assert samples["h_sum"] == pytest.approx(104.2)

    def test_boundary_lands_in_its_bucket(self):
        # Prometheus buckets are `le` (inclusive upper bound).
        h = MetricsRegistry().histogram("h", "help", buckets=(1.0, 5.0))
        h.observe(1.0)
        assert dict(h.samples())['h_bucket{le="1"}'] == 1

    def test_buckets_must_increase(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().histogram("h", "help", buckets=(1.0, 1.0))

    def test_count_helper(self):
        h = MetricsRegistry().histogram("h", "help", ("k",), buckets=(1.0,))
        assert h.count(k="a") == 0
        h.observe(0.5, k="a")
        assert h.count(k="a") == 1


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("x_total", "help") is r.counter("x_total", "help")

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x", "help")
        with pytest.raises(ValidationError):
            r.gauge("x", "help")

    def test_label_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x", "help", ("a",))
        with pytest.raises(ValidationError):
            r.counter("x", "help", ("b",))

    def test_invalid_names_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(ValidationError):
            r.counter("2bad", "help")
        with pytest.raises(ValidationError):
            r.counter("ok", "help", ("bad-label",))

    def test_render_includes_help_and_type(self):
        r = MetricsRegistry()
        r.counter("x_total", "what x counts").inc()
        page = r.render()
        assert "# HELP x_total what x counts" in page
        assert "# TYPE x_total counter" in page
        assert "x_total 1" in page


class TestRenderParseRoundTrip:
    def test_round_trip(self):
        r = MetricsRegistry()
        r.counter("a_total", "h").inc(3)
        r.gauge("b", "h", ("x",)).set(2.5, x="v")
        h = r.histogram("c", "h", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        parsed = parse_prometheus_text(r.render())
        assert parsed["a_total"] == 3.0
        assert parsed[sample_name("b", {"x": "v"})] == 2.5
        assert parsed['c_bucket{le="0.1"}'] == 1.0
        assert parsed['c_bucket{le="+Inf"}'] == 2.0
        assert parsed["c_count"] == 2.0

    def test_label_escaping_round_trips(self):
        r = MetricsRegistry()
        tricky = 'sl\\ash "quote"\nnewline'
        r.counter("a_total", "h", ("k",)).inc(k=tricky)
        parsed = parse_prometheus_text(r.render())
        assert parsed[sample_name("a_total", {"k": tricky})] == 1.0

    def test_sample_name_sorts_labels(self):
        assert sample_name("m", {"b": 1, "a": 2}) == 'm{a="2",b="1"}'


# --------------------------------------------------------------------------
# the service bridge
# --------------------------------------------------------------------------

class TestServiceMetrics:
    def test_counters_reconcile_exactly_with_stats(self, geometry):
        metrics = ServiceMetrics()
        with PermutationService(
            geometry, workers=4, metrics=metrics
        ) as service:
            service.run(synthetic_mix(12, capture_portion=True))
            page = metrics.render(service=service)
            stats = service.stats()
        parsed = parse_prometheus_text(page)
        assert parsed["repro_requests_submitted_total"] == stats.submitted == 12
        assert parsed["repro_requests_admitted_total"] == stats.admitted
        assert parsed["repro_requests_shed_total"] == stats.shed
        assert parsed["repro_requests_completed_total"] == stats.completed
        assert (
            parsed["repro_requests_admitted_total"]
            + parsed["repro_requests_shed_total"]
            == parsed["repro_requests_submitted_total"]
        )
        # every completed request prepared, verified and digested once
        for stage in ("prepare", "verify", "digest"):
            sample = f'repro_request_stage_seconds_count{{stage="{stage}"}}'
            assert parsed[sample] == stats.completed, stage

    def test_shed_requests_reconcile(self, geometry):
        metrics = ServiceMetrics()
        with PermutationService(
            geometry,
            workers=1,
            queue_capacity=1,
            queue_policy="reject",
            metrics=metrics,
            faults=FaultPlan(seed=0, slow_passes=1.0, slow_seconds=0.05),
        ) as service:
            futures = [
                service.submit(r) for r in synthetic_mix(8, distinct_seeds=1)
            ]
            for f in futures:
                f.result()
            parsed = parse_prometheus_text(metrics.render(service=service))
            stats = service.stats()
        assert stats.shed > 0
        assert parsed["repro_requests_shed_total"] == stats.shed
        assert (
            parsed["repro_requests_admitted_total"] + stats.shed
            == parsed["repro_requests_submitted_total"]
        )

    def test_latency_and_pass_histograms_fed(self, geometry):
        metrics = ServiceMetrics()
        with PermutationService(
            geometry, workers=2, metrics=metrics
        ) as service:
            results = service.run(
                [PermutationRequest(perm="transpose"), PermutationRequest(perm="gray")]
            )
        assert metrics.latency.count(perm="transpose", method="auto") == 1
        assert metrics.queue_wait.count() == 2
        methods = {r.report.method for r in results}
        assert sum(metrics.passes.count(method=m) for m in methods) == 2
        assert metrics.parallel_ios.count() == 2
        # the stage breakdown came through the ambient trace
        for stage in ("prepare", "execute", "verify"):
            assert metrics.stage_seconds.count(stage=stage) == 2, stage

    def test_error_counter_by_type(self, geometry):
        metrics = ServiceMetrics()
        with PermutationService(
            geometry,
            workers=1,
            metrics=metrics,
            faults=FaultPlan(seed=0, planner_failures=1.0),
        ) as service:
            result = service.run([PermutationRequest(perm="transpose")])[0]
        assert isinstance(result.error, InjectedFault)
        assert metrics.errors.value(type="InjectedFault") == 1.0

    def test_cache_and_shard_counters_bridged(self, geometry):
        metrics = ServiceMetrics()
        with PermutationService(
            geometry, workers=2, num_shards=4, metrics=metrics
        ) as service:
            service.run(synthetic_mix(8, distinct_seeds=1))
            parsed = parse_prometheus_text(metrics.render(service=service))
            info = service.cache.info()
        assert parsed["repro_cache_hits_total"] == info.hits
        assert parsed["repro_cache_misses_total"] == info.misses
        assert parsed["repro_cache_size"] == info.size
        shard_hits = sum(
            v
            for k, v in parsed.items()
            if k.startswith("repro_cache_shard_hits_total")
        )
        assert shard_hits == info.hits

    def test_up_gauge_follows_close(self, geometry):
        metrics = ServiceMetrics()
        service = PermutationService(geometry, workers=1, metrics=metrics)
        metrics.collect(service)
        assert metrics.up.value() == 1.0
        service.close()
        metrics.collect(service)
        assert metrics.up.value() == 0.0

    def test_trace_records_queue_wait_and_request_ids(self, geometry):
        with PermutationService(geometry, workers=1) as service:
            future = service.submit(PermutationRequest(perm="transpose"))
            assert future.request_id == "r000000"
            result = future.result()
        assert result.request_id == "r000000"
        for stage in ("queue_wait", "prepare", "execute", "verify"):
            assert stage in result.timings, stage
