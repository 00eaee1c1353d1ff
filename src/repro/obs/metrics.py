"""Metrics registry with Prometheus text exposition.

Counters, gauges and histograms with label support, registered once at
module import by the instrumented layers (queue, batching, runtime
cache, portfolio, sessions, solver) and served by ``GET /metricsz`` in
the Prometheus text format (version 0.0.4) or dumped by the ``repro
metrics`` CLI.

Design constraints:

* stdlib only, thread-safe (instruments are touched from the event
  loop, executor threads and the CLI);
* instruments are **process-global**: the registry is a singleton and
  re-registering a name returns the existing instrument (with a
  type/label-compatibility check), so every layer can declare its
  metrics at import time without coordination.  Pool *worker* processes
  have their own (discarded) registry — cross-process counters are fed
  in the submitting process from the returned result statistics;
* recording is cheap (one lock + dict update) and never on the solver's
  per-pivot hot path — solver totals are credited once per solve from
  ``VerificationResult.statistics``;
* a family with no observations still renders its ``# HELP``/``# TYPE``
  header, so scrapes can discover the full catalog from a fresh
  process.

``REPRO_METRICS=0`` turns every record call into a no-op (rendering
still works and shows the empty catalog).
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.trace import current_context as _current_span_context

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")
_LABEL_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")

#: default latency buckets, in seconds (solver work spans ~1 ms .. minutes)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(ch not in _NAME_OK for ch in name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labels(labels: Sequence[str]) -> Tuple[str, ...]:
    out = tuple(labels)
    for label in out:
        if (
            not label
            or label[0].isdigit()
            or label.startswith("__")
            or any(ch not in _LABEL_OK for ch in label)
        ):
            raise ValueError(f"invalid label name {label!r}")
    return out


def _escape_label_value(value: Any) -> str:
    text = str(value)
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_exemplar(exemplar: Tuple[str, float, float]) -> str:
    """OpenMetrics-style exemplar suffix for a ``_bucket`` sample line."""
    trace_id, value, stamp = exemplar
    return (
        f' # {{trace_id="{_escape_label_value(trace_id)}"}} '
        f"{_format_value(float(value))} {_format_value(float(stamp))}"
    )


class _Metric:
    """Shared machinery: label handling and the per-labelset value map."""

    kind = "untyped"

    def __init__(
        self, registry: "MetricsRegistry", name: str, help: str, labels: Sequence[str]
    ) -> None:
        self.registry = registry
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labels(labels)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _series(self, key: Tuple[str, ...]) -> str:
        if not self.labelnames:
            return self.name
        inner = ",".join(
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, key)
        )
        return f"{self.name}{{{inner}}}"

    def _enabled(self) -> bool:
        return self.registry.enabled


class Counter(_Metric):
    """Monotonically increasing count (``repro_jobs_submitted_total``)."""

    kind = "counter"

    def __init__(self, registry, name, help, labels) -> None:
        super().__init__(registry, name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._enabled():
            return
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _render(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        if not self.labelnames and not items:
            items = [((), 0.0)]
        return [f"{self._series(k)} {_format_value(v)}" for k, v in items]

    def _snapshot(self) -> Any:
        with self._lock:
            if not self.labelnames:
                return self._values.get((), 0.0)
            return {",".join(k): v for k, v in sorted(self._values.items())}

    def _reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(_Metric):
    """A value that can go up and down (``repro_queue_depth``)."""

    kind = "gauge"

    def __init__(self, registry, name, help, labels) -> None:
        super().__init__(registry, name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        if not self._enabled():
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._enabled():
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    _render = Counter._render
    _snapshot = Counter._snapshot
    _reset = Counter._reset


class Histogram(_Metric):
    """Cumulative-bucket distribution (latencies, batch sizes).

    Each ``(labelset, bucket)`` pair keeps at most one **exemplar** — the
    trace id, raw value and wall timestamp of the last sample that landed
    natively in that bucket — so dashboards can jump from "p99 got worse"
    straight to a renderable trace.  Exemplars are captured from the
    ambient span context (or an explicit ``exemplar=`` trace id) and only
    rendered when present, so expositions without tracing are unchanged.
    """

    kind = "histogram"

    def __init__(self, registry, name, help, labels, buckets) -> None:
        super().__init__(registry, name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}
        self._totals: Dict[Tuple[str, ...], int] = {}
        # labelset -> bucket index (len(bounds) = +Inf) -> (trace_id, value, ts)
        self._exemplar_map: Dict[Tuple[str, ...], Dict[int, Tuple[str, float, float]]] = {}

    def observe(
        self, value: float, exemplar: Optional[str] = None, **labels: Any
    ) -> None:
        if not self._enabled():
            return
        key = self._key(labels)
        value = float(value)
        if exemplar is None:
            ctx = _current_span_context()
            if ctx is not None:
                exemplar = ctx.trace_id
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * len(self.bounds)
                self._counts[key] = counts
            native = len(self.bounds)  # +Inf unless a finite bucket fits
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[i] += 1
                    if i < native:
                        native = i
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1
            if exemplar:
                self._exemplar_map.setdefault(key, {})[native] = (
                    str(exemplar),
                    value,
                    time.time(),
                )

    def exemplars(self, **labels: Any) -> Dict[float, Tuple[str, float, float]]:
        """Bucket bound (``math.inf`` for +Inf) -> (trace_id, value, ts)."""
        key = self._key(labels)
        with self._lock:
            stored = dict(self._exemplar_map.get(key, {}))
        bounds = self.bounds + (math.inf,)
        return {bounds[i]: ex for i, ex in sorted(stored.items())}

    def set_exemplar(
        self, value: float, trace_id: str, stamp: Optional[float] = None, **labels: Any
    ) -> None:
        """Attach an exemplar without changing counts (cross-process credit)."""
        if not self._enabled() or not trace_id:
            return
        key = self._key(labels)
        value = float(value)
        native = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                native = i
                break
        with self._lock:
            self._exemplar_map.setdefault(key, {})[native] = (
                str(trace_id),
                value,
                time.time() if stamp is None else float(stamp),
            )

    def count(self, **labels: Any) -> int:
        key = self._key(labels)
        with self._lock:
            return self._totals.get(key, 0)

    def sum(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def _render(self) -> List[str]:
        with self._lock:
            keys = sorted(self._totals)
            if not self.labelnames and not keys:
                keys = [()]
            lines: List[str] = []
            for key in keys:
                counts = self._counts.get(key, [0] * len(self.bounds))
                exemplars = self._exemplar_map.get(key, {})
                # observe() increments every bucket the value fits in, so
                # counts are already cumulative as the format requires
                for i, (bound, count) in enumerate(zip(self.bounds, counts)):
                    line = f"{self._bucket_series(key, _format_value(bound))} {count}"
                    if i in exemplars:
                        line += _format_exemplar(exemplars[i])
                    lines.append(line)
                total = self._totals.get(key, 0)
                line = f"{self._bucket_series(key, '+Inf')} {total}"
                if len(self.bounds) in exemplars:
                    line += _format_exemplar(exemplars[len(self.bounds)])
                lines.append(line)
                lines.append(
                    f"{self._suffix_series(key, '_sum')} "
                    f"{_format_value(self._sums.get(key, 0.0))}"
                )
                lines.append(f"{self._suffix_series(key, '_count')} {total}")
            return lines

    def _bucket_series(self, key: Tuple[str, ...], le: str) -> str:
        pairs = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        pairs.append(f'le="{le}"')
        return f"{self.name}_bucket{{{','.join(pairs)}}}"

    def _suffix_series(self, key: Tuple[str, ...], suffix: str) -> str:
        base = self._series(key)
        if "{" in base:
            name, rest = base.split("{", 1)
            return f"{name}{suffix}{{{rest}"
        return f"{base}{suffix}"

    def _snapshot(self) -> Any:
        with self._lock:
            return {
                "buckets": list(self.bounds),
                "series": {
                    ",".join(k) if k else "": {
                        "counts": list(self._counts.get(k, [])),
                        "sum": self._sums.get(k, 0.0),
                        "count": total,
                    }
                    for k, total in sorted(self._totals.items())
                },
            }

    def _reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._sums.clear()
            self._totals.clear()
            self._exemplar_map.clear()


class MetricsRegistry:
    """Name -> instrument map with get-or-create registration."""

    def __init__(self) -> None:
        self._metrics: "Dict[str, _Metric]" = {}
        self._lock = threading.Lock()
        self.enabled = os.environ.get("REPRO_METRICS", "1") not in ("", "0")

    # ------------------------------------------------------------------
    def _register(self, cls, name: str, help: str, labels: Sequence[str], **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(
                    labels
                ):
                    raise ValueError(
                        f"metric {name!r} already registered with a different "
                        f"type or label set"
                    )
                return existing
            metric = cls(self, name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The full catalog in Prometheus text exposition format 0.0.4."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            if metric.help:
                escaped = metric.help.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {metric.name} {escaped}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric._render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view of every instrument (CLI, tests)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {
            name: {"type": metric.kind, "value": metric._snapshot()}
            for name, metric in sorted(metrics.items())
        }

    def reset(self) -> None:
        """Zero every instrument (test isolation); registrations remain."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric._reset()


# ----------------------------------------------------------------------
# the process-global registry
# ----------------------------------------------------------------------
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every instrumented layer registers on."""
    return _registry


def counter(name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
    return _registry.counter(name, help=help, labels=labels)


def gauge(name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
    return _registry.gauge(name, help=help, labels=labels)


def histogram(
    name: str,
    help: str = "",
    labels: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> Histogram:
    return _registry.histogram(name, help=help, labels=labels, buckets=buckets)


def record_build_info(registry: Optional[MetricsRegistry] = None) -> Gauge:
    """Set the ``repro_build_info`` gauge on ``registry`` (default global).

    One series with value 1 whose labels identify everything a fleet
    audit needs to spot skew between replicas: the full engine
    signature, the package version, the resolved theory-kernel switch
    and the default SAT search configuration.  Imported lazily so the
    metrics module stays dependency-free for pool workers.
    """
    from repro import __version__
    from repro.smt import solver as _solver
    from repro.smt.sat import SolverConfig

    reg = registry if registry is not None else _registry
    build_info = reg.gauge(
        "repro_build_info",
        "Build/configuration identity of this process (value is always 1)",
        labels=("engine_signature", "version", "kernel", "sat_config"),
    )
    build_info.set(
        1,
        engine_signature=_solver.engine_signature(),
        version=__version__,
        kernel=_solver._resolve_kernel(None),
        sat_config=SolverConfig().token(),
    )
    return build_info
