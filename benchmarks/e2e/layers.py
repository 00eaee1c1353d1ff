"""Layer spans for the traced run, recorded from the benchmark's own files.

:class:`Recorder` wraps the public callables behind each per-layer
metric and records one span per call: layer, start, end, parent span and
request id.  No file of the program changes.  Module-level functions are
replaced *by identity* in every module of ``sys.modules``, because the
program binds them with ``from ... import`` (``repro.runtime.executor``
holds its own reference to ``verify_attack``); methods are replaced on
their class.  Spans stay in memory and are written as JSON lines when
the traced process ends.

:func:`summarize` turns spans into per-layer totals: a layer's total
counts each outermost span of that layer once, and a span's *self time*
is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from stats import union_length

#: the span the current code runs under, per thread and per asyncio task
_current_span: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)

#: request id the harness or launcher assigns to the work in progress
request_id: contextvars.ContextVar = contextvars.ContextVar("e2e_request", default=None)


def clock() -> float:
    """Span timestamps: CLOCK_MONOTONIC on Linux, so spans written by a
    server or a CLI process line up with the load generator's clock."""
    return time.monotonic()


#: solver statistics summed over ``Solver.check`` calls (deltas per call)
SMT_COUNTS = (
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "theory_checks",
    "pivots",
    "theory_props",
)
#: solver phase times, present when REPRO_SMT_PROFILE=1
SMT_PHASES = ("bcp", "theory", "decide", "analyze")


def _solver_snapshot(args: tuple) -> Dict[str, float]:
    stats = args[0].statistics()
    snapshot = {key: stats.get(key, 0) for key in SMT_COUNTS}
    for phase in SMT_PHASES:
        snapshot[f"time_{phase}"] = stats.get(f"time_{phase}", 0.0)
    return snapshot


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``snapshot`` reads counters from the call's arguments; the span
    records their change over the call.  ``outcome`` reads counters from
    the call's return value.
    """

    layer: str
    module: str
    qualname: str
    snapshot: Optional[Callable[[tuple], Dict[str, float]]] = None
    outcome: Optional[Callable[[Any], Dict[str, float]]] = None


SERIALIZE_HELPERS = (
    "spec_to_payload",
    "payload_to_spec",
    "canonical_json",
    "spec_fingerprint",
    "family_fingerprint",
    "result_to_payload",
    "result_from_payload",
    "attack_to_payload",
    "attack_from_payload",
)

GRID_BUILDERS = (
    "load_case",
    "ieee14",
    "ieee30",
    "ieee57",
    "ieee118",
    "ieee300",
    "synthetic1000",
    "synthetic2000",
    "synthetic3000",
)

TARGETS: Tuple[Target, ...] = (
    Target("cli.command", "repro.cli", "main"),
    Target("service.http", "repro.service.http", "ServiceApp.handle"),
    Target("service.batching.exec", "repro.service.batching", "verify_specs_batched"),
    Target("runtime.executor", "repro.runtime.executor", "verify_many"),
    Target("runtime.cache.get", "repro.runtime.cache", "ResultCache.get"),
    Target("runtime.cache.put", "repro.runtime.cache", "ResultCache.put"),
    *(
        Target("runtime.serialize", "repro.runtime.serialize", name)
        for name in SERIALIZE_HELPERS
    ),
    Target("core.verify", "repro.core.verification", "verify_attack"),
    Target("core.encode", "repro.core.verification", "UfdiEncoder.__init__"),
    Target("core.extract", "repro.core.verification", "UfdiEncoder.extract_attack"),
    Target("core.session.probe", "repro.core.verification", "VerificationSession.probe"),
    Target(
        "core.mincost",
        "repro.core.mincost",
        "minimum_attack_cost",
        outcome=lambda result: {"probes": result.probes},
    ),
    Target(
        "core.synthesis",
        "repro.core.synthesis",
        "synthesize_architecture",
        outcome=lambda result: {"iterations": result.iterations},
    ),
    Target("smt.check", "repro.smt.solver", "Solver.check", snapshot=_solver_snapshot),
    *(Target("grid.load", "repro.grid.cases", name) for name in GRID_BUILDERS),
    Target("grid.load", "repro.grid.model", "Grid.__init__"),
)


class Recorder:
    """Records spans in memory; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, layer: str):
        record: Dict[str, Any] = {
            "id": next(self._ids),
            "parent": _current_span.get(),
            "layer": layer,
            "request": request_id.get(),
            "start": clock(),
            "end": None,
        }
        token = _current_span.set(record["id"])
        try:
            yield record
        finally:
            record["end"] = clock()
            _current_span.reset(token)
            self.spans.append(record)

    def add_span(self, layer: str, start: float, end: float) -> None:
        """Record a span timed by the caller (e.g. an import before the
        recorder's wrappers could exist)."""
        self.spans.append(
            {
                "id": next(self._ids),
                "parent": None,
                "layer": layer,
                "request": request_id.get(),
                "start": start,
                "end": end,
            }
        )

    # ------------------------------------------------------------------
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        recorder = self

        def finish(record: Dict[str, Any], before, args, result) -> None:
            counters: Dict[str, float] = {}
            if before is not None:
                after = target.snapshot(args)
                counters = {key: after[key] - before[key] for key in after}
            if target.outcome is not None:
                counters.update(target.outcome(result))
            if counters:
                record["counters"] = counters

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                with recorder.span(target.layer) as record:
                    before = target.snapshot(args) if target.snapshot else None
                    result = await fn(*args, **kwargs)
                    finish(record, before, args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span(target.layer) as record:
                before = target.snapshot(args) if target.snapshot else None
                result = fn(*args, **kwargs)
                finish(record, before, args, result)
            return result

        return wrapper

    def install(
        self, targets: Sequence[Target] = TARGETS, skip: Iterable[str] = ()
    ) -> None:
        """Wrap every target whose layer is not in ``skip``."""
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        skip = set(skip)
        replacements: Dict[int, Tuple[Any, Callable]] = {}
        for target in targets:
            if target.layer in skip:
                continue
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(target, original))
                self._patches.append((owner, attr, original))
            else:
                original = getattr(module, attr)
                replacements[id(original)] = (original, self._wrap(target, original))
        # one pass over every module namespace: a function imported by
        # name elsewhere is replaced wherever the same object is bound
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[name] = hit[1]
                    self._patches.append((namespace, name, value))

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def run_cli_traced(skip: Iterable[str] = ()) -> int:
    """Launcher body for ``LAUNCHER --spans FILE -- ARGV...``.

    Times ``import repro.cli``, installs the wrappers, runs
    ``repro.cli.main(ARGV)`` and writes the spans to FILE when it
    returns; the command's exit code is returned.
    """
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--spans" or args[2] != "--":
        raise SystemExit(f"usage: {sys.argv[0]} --spans FILE -- ARGV...")
    spans_path, argv = Path(args[1]), args[3:]
    recorder = Recorder()
    start = clock()
    import repro.cli

    recorder.add_span("cli.import", start, clock())
    recorder.install(skip=skip)
    try:
        return repro.cli.main(argv)
    finally:
        recorder.uninstall()
        recorder.write_jsonl(spans_path)


def read_jsonl(path: Path) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
@dataclass
class LayerTotals:
    """Per-layer sums over one set of spans."""

    total: float = 0.0  # outermost spans of the layer, each counted once
    self_time: float = 0.0  # duration minus the union of children
    count: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    def add(self, other: "LayerTotals") -> None:
        self.total += other.total
        self.self_time += other.self_time
        self.count += other.count
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value


@dataclass
class Summary:
    """Layer totals plus the time covered by top-level spans."""

    layers: Dict[str, LayerTotals]
    covered: float  # union of top-level span intervals

    def add(self, other: "Summary") -> None:
        for layer, totals in other.layers.items():
            self.layers.setdefault(layer, LayerTotals()).add(totals)
        self.covered += other.covered

    def total(self, layer: str) -> float:
        return self.layers.get(layer, LayerTotals()).total

    def self_time(self, layer: str) -> float:
        return self.layers.get(layer, LayerTotals()).self_time

    def count(self, layer: str) -> int:
        return self.layers.get(layer, LayerTotals()).count

    def counter(self, layer: str, key: str) -> float:
        return self.layers.get(layer, LayerTotals()).counters.get(key, 0)


def within(spans: Sequence[Dict[str, Any]], window: Tuple[float, float]) -> List[Dict[str, Any]]:
    """The spans lying wholly inside ``window``."""
    return [s for s in spans if window[0] <= s["start"] and s["end"] <= window[1]]


def summarize(
    spans: Sequence[Dict[str, Any]],
    clip: Tuple[float, float] = (-float("inf"), float("inf")),
) -> Summary:
    """Aggregate the spans of *one* process (span ids are per process);
    the time covered by top-level spans is clipped to ``clip``."""
    low, high = clip
    by_id = {s["id"]: s for s in spans}
    children: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            children[s["parent"]].append(s)

    def nested_in_same_layer(s: Dict[str, Any]) -> bool:
        parent = by_id.get(s["parent"])
        while parent is not None:
            if parent["layer"] == s["layer"]:
                return True
            parent = by_id.get(parent["parent"])
        return False

    layers: Dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s in spans:
        totals = layers[s["layer"]]
        duration = s["end"] - s["start"]
        covered = union_length(
            ((c["start"], c["end"]) for c in children.get(s["id"], ())),
            s["start"],
            s["end"],
        )
        totals.self_time += duration - covered
        totals.count += 1
        if not nested_in_same_layer(s):
            totals.total += duration
        for key, value in s.get("counters", {}).items():
            totals.counters[key] = totals.counters.get(key, 0) + value
    top_level = [(s["start"], s["end"]) for s in spans if s["parent"] not in by_id]
    return Summary(dict(layers), union_length(top_level, low, high))


def layer_metrics(summary: Summary) -> Dict[str, Tuple[float, str]]:
    """Named per-layer metrics: ``name -> (value, unit)``.

    A metric appears when its layer recorded at least one span, so each
    workload reports the layers it crosses.
    """
    out: Dict[str, Tuple[float, str]] = {}

    def put(layer: str, name: str, value: float, unit: str) -> None:
        if summary.count(layer):
            out[name] = (value, unit)

    s = summary
    put("cli.import", "cli.import_s", s.total("cli.import"), "s")
    put("cli.command", "cli.command_s", s.total("cli.command"), "s")
    put("grid.load", "grid.load_s", s.total("grid.load"), "s")
    put("core.encode", "core.encode_s", s.total("core.encode"), "s")
    put("core.encode", "core.encodes", s.count("core.encode"), "count")
    put("core.extract", "core.extract_s", s.total("core.extract"), "s")
    put("core.session.probe", "core.session.probe_s", s.total("core.session.probe"), "s")
    put("core.session.probe", "core.session.probes", s.count("core.session.probe"), "count")
    put("core.mincost", "core.mincost.self_s", s.self_time("core.mincost"), "s")
    put("core.mincost", "core.mincost.probes", s.counter("core.mincost", "probes"), "count")
    put("core.synthesis", "core.synthesis.self_s", s.self_time("core.synthesis"), "s")
    put(
        "core.synthesis",
        "core.synthesis.iterations",
        s.counter("core.synthesis", "iterations"),
        "count",
    )
    put("smt.check", "smt.check_s", s.total("smt.check"), "s")
    for phase in SMT_PHASES:
        put("smt.check", f"smt.{phase}_s", s.counter("smt.check", f"time_{phase}"), "s")
    for key in SMT_COUNTS:
        put("smt.check", f"smt.{key}", s.counter("smt.check", key), "count")
    put("runtime.executor", "runtime.executor.self_s", s.self_time("runtime.executor"), "s")
    put("runtime.cache.get", "runtime.cache.get_s", s.total("runtime.cache.get"), "s")
    put("runtime.cache.put", "runtime.cache.put_s", s.total("runtime.cache.put"), "s")
    put("runtime.serialize", "runtime.serialize_s", s.total("runtime.serialize"), "s")
    put(
        "service.batching.exec",
        "service.batching.exec_s",
        s.total("service.batching.exec"),
        "s",
    )
    return out
