"""Continuous monitoring: streaming measurements, live re-verification.

The paper's analytics are one-shot: encode a grid and a spec, decide
attack feasibility, print.  Real state estimation is a control-room
loop — measurements arrive every few seconds, breakers open, and the
operator's question is standing: *is the grid currently in an
undetectably-attackable state, and what would fix it?*

This package closes that loop on top of the existing stack:

* :mod:`repro.monitor.scenario` — seeded, deterministic scenario
  timelines (``nominal``, ``noise_burst``, ``telemetry_spoof``,
  ``line_outage``) composable from JSON files or built-in templates;
* :mod:`repro.monitor.emulator` — a tick-based measurement-stream
  generator driving the warm WLS estimator over a grid case;
* :mod:`repro.monitor.triggers` — per-tick chi-square checks plus
  change-point triggers (CUSUM on the residual norm, CUSUM on state
  drift, topology-change events) deciding *when* deeper analysis is
  warranted;
* :mod:`repro.monitor.reverify` — the bridge that turns a trigger into
  targeted verification/min-cost/synthesis work, either in-process on
  warm sessions or as high-priority jobs on a running service;
* :mod:`repro.monitor.incidents` — typed :class:`Incident` records
  with a JSONL sink and an in-memory store served at
  ``GET /v1/incidents``;
* :mod:`repro.monitor.engine` — the per-tick loop wiring all of the
  above together (``repro monitor`` in the CLI).

The package re-exports nothing: ``repro serve`` imports
:mod:`repro.monitor.incidents` alone, without the numerical emulator and
triggers.
"""
