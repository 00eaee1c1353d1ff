"""End-to-end observability: span tracing, metrics, structured logs.

Three stdlib-only pillars behind one package, shared by every layer of
the reproduction (HTTP service, job queue, batching scheduler, parallel
runtime, verification sessions, SMT solver):

* :mod:`repro.obs.trace` — ``trace_id``/``span_id`` span tracing with
  contextvars propagation through asyncio, explicit payload propagation
  across the process-pool boundary, a bounded in-memory ring and an
  optional JSONL sink.  Off by default (no-op tracer).
* :mod:`repro.obs.metrics` — counters/gauges/histograms with labels,
  rendered in Prometheus text format by ``GET /metricsz`` and the
  ``repro metrics`` CLI.
* :mod:`repro.obs.logging` — trace-correlated one-line JSON logs.

See ``docs/OBSERVABILITY.md`` for the metric catalog, the span tree of
a verify request, the log schema and scrape examples.
"""
