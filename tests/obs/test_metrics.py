"""Metrics registry: instruments, labels, Prometheus text exposition."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    get_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("t_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_series_are_independent(self, registry):
        c = registry.counter("t_total", "help", labels=("kind",))
        c.inc(kind="a")
        c.inc(3, kind="b")
        assert c.value(kind="a") == 1
        assert c.value(kind="b") == 3

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("t_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_wrong_labelset_rejected(self, registry):
        c = registry.counter("t_total", labels=("kind",))
        with pytest.raises(ValueError):
            c.inc(other="x")
        with pytest.raises(ValueError):
            c.inc()


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("t_depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4


class TestHistogram:
    def test_observe_counts_and_sum(self, registry):
        h = registry.histogram("t_seconds", buckets=(0.1, 1.0, 10.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(100.0)  # beyond all bounds: only +Inf
        assert h.count() == 3
        assert h.sum() == pytest.approx(100.55)

    def test_buckets_render_cumulative(self, registry):
        h = registry.histogram("t_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = registry.render_prometheus()
        assert 't_seconds_bucket{le="0.1"} 1' in text
        assert 't_seconds_bucket{le="1"} 2' in text
        assert 't_seconds_bucket{le="+Inf"} 2' in text
        assert "t_seconds_count 2" in text

    def test_default_buckets_cover_solver_range(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 60


class TestRegistration:
    def test_reregistering_returns_same_instrument(self, registry):
        a = registry.counter("t_total", "help", labels=("k",))
        b = registry.counter("t_total", "other help", labels=("k",))
        assert a is b

    def test_type_conflict_rejected(self, registry):
        registry.counter("t_total")
        with pytest.raises(ValueError):
            registry.gauge("t_total")

    def test_label_conflict_rejected(self, registry):
        registry.counter("t_total", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("t_total", labels=("b",))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("9starts_with_digit")
        with pytest.raises(ValueError):
            registry.counter("has space")
        with pytest.raises(ValueError):
            registry.counter("ok_total", labels=("__reserved",))


class TestRendering:
    def test_help_and_type_headers(self, registry):
        registry.counter("t_total", "does things")
        text = registry.render_prometheus()
        assert "# HELP t_total does things" in text
        assert "# TYPE t_total counter" in text

    def test_unlabeled_empty_counter_renders_zero(self, registry):
        registry.counter("t_total", "h")
        assert "t_total 0" in registry.render_prometheus()

    def test_labeled_empty_family_renders_header_only(self, registry):
        registry.counter("t_total", "h", labels=("kind",))
        text = registry.render_prometheus()
        assert "# TYPE t_total counter" in text
        assert "t_total{" not in text

    def test_label_values_escaped(self, registry):
        c = registry.counter("t_total", labels=("path",))
        c.inc(path='a"b\\c\nd')
        text = registry.render_prometheus()
        assert 't_total{path="a\\"b\\\\c\\nd"} 1' in text

    def test_render_ends_with_newline(self, registry):
        registry.counter("t_total")
        assert registry.render_prometheus().endswith("\n")


class TestSnapshotAndReset:
    def test_snapshot_is_jsonable(self, registry):
        import json

        registry.counter("t_total", labels=("k",)).inc(k="x")
        registry.histogram("t_seconds", buckets=(1.0,)).observe(0.5)
        json.dumps(registry.snapshot())

    def test_reset_zeroes_but_keeps_registrations(self, registry):
        c = registry.counter("t_total")
        c.inc(5)
        registry.reset()
        assert c.value() == 0
        assert registry.get("t_total") is c


class TestDisabled:
    def test_disabled_registry_records_nothing(self, registry):
        registry.enabled = False
        c = registry.counter("t_total")
        c.inc(10)
        assert c.value() == 0
        # rendering still exposes the catalog
        assert "# TYPE t_total counter" in registry.render_prometheus()


class TestGlobalRegistry:
    def test_service_families_are_preregistered(self):
        # importing the instrumented layers registers the whole catalog
        import repro.runtime.executor  # noqa: F401
        import repro.service.http  # noqa: F401

        names = get_registry().names()
        for family in (
            "repro_http_requests_total",
            "repro_jobs_submitted_total",
            "repro_queue_depth",
            "repro_queue_wait_seconds",
            "repro_batch_size",
            "repro_cache_lookups_total",
            "repro_portfolio_config_wins_total",
            "repro_session_events_total",
            "repro_solver_conflicts_total",
            "repro_solver_theory_props_total",
            "repro_solver_fill_ratio",
            "repro_solver_refactorizations_total",
            "repro_solve_seconds",
            "repro_task_timeouts_total",
        ):
            assert family in names


class TestExemplars:
    def histogram(self, registry):
        return registry.histogram("t_seconds", "latency", buckets=(0.1, 1.0))

    def test_explicit_exemplar_lands_in_native_bucket(self, registry):
        h = self.histogram(registry)
        h.observe(0.05, exemplar="trace-a")
        exemplars = h.exemplars()
        assert exemplars[0.1][0] == "trace-a"
        assert exemplars[0.1][1] == pytest.approx(0.05)

    def test_overflow_exemplar_keyed_by_inf(self, registry):
        import math

        h = self.histogram(registry)
        h.observe(5.0, exemplar="trace-slow")
        assert h.exemplars()[math.inf][0] == "trace-slow"

    def test_rendered_only_on_the_native_bucket_line(self, registry):
        h = self.histogram(registry)
        h.observe(0.05, exemplar="trace-a")
        lines = registry.render_prometheus().splitlines()
        tagged = [line for line in lines if "# {" in line]
        assert tagged == [
            't_seconds_bucket{le="0.1"} 1 # {trace_id="trace-a"} 0.05 '
            + tagged[0].rsplit(" ", 1)[1]
        ]

    def test_no_exemplar_no_suffix(self, registry):
        h = self.histogram(registry)
        h.observe(0.05)
        assert "# {" not in registry.render_prometheus()

    def test_ambient_span_trace_id_captured(self, registry):
        from repro.obs.trace import Tracer, get_tracer, set_tracer

        previous = get_tracer()
        tracer = Tracer()
        set_tracer(tracer)
        try:
            h = self.histogram(registry)
            with tracer.span("op") as span:
                h.observe(0.05)
            assert h.exemplars()[0.1][0] == span.trace_id
        finally:
            set_tracer(previous)

    def test_set_exemplar_attaches_without_counting(self, registry):
        h = self.histogram(registry)
        h.set_exemplar(0.05, "trace-x", stamp=123.0)
        assert h.count() == 0
        assert h.exemplars()[0.1] == ("trace-x", 0.05, 123.0)

    def test_newer_observation_replaces_bucket_exemplar(self, registry):
        h = self.histogram(registry)
        h.observe(0.05, exemplar="old")
        h.observe(0.06, exemplar="new")
        assert h.exemplars()[0.1][0] == "new"

    def test_labeled_series_keep_separate_exemplars(self, registry):
        h = registry.histogram(
            "t_seconds", "latency", labels=("kind",), buckets=(0.1,)
        )
        h.observe(0.05, exemplar="a", kind="x")
        h.observe(0.05, exemplar="b", kind="y")
        assert h.exemplars(kind="x")[0.1][0] == "a"
        assert h.exemplars(kind="y")[0.1][0] == "b"


class TestBuildInfo:
    def test_single_series_with_identity_labels(self, registry):
        from repro.obs.metrics import record_build_info

        gauge = record_build_info(registry)
        text = registry.render_prometheus()
        assert "# TYPE repro_build_info gauge" in text
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_build_info{")
        )
        assert line.endswith(" 1")
        for label in ("engine_signature=", "version=", "kernel=", "sat_config="):
            assert label in line
        assert gauge.labelnames == (
            "engine_signature", "version", "kernel", "sat_config",
        )

    def test_signature_matches_solver_engine(self, registry):
        from repro.obs.metrics import record_build_info
        from repro.smt.solver import engine_signature

        record_build_info(registry)
        assert engine_signature() in registry.render_prometheus()

    def test_idempotent_re_registration(self, registry):
        from repro.obs.metrics import record_build_info

        first = record_build_info(registry)
        second = record_build_info(registry)
        assert first is second
        lines = [
            l for l in registry.render_prometheus().splitlines()
            if l.startswith("repro_build_info{")
        ]
        assert len(lines) == 1
