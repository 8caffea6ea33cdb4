"""Unified observability: wall-clock tracing + service metrics.

Three submodules, one story:

* :mod:`repro.obs.tracing` -- request-scoped span model emitted through
  the obslog stream; the ``repro trace`` stitcher
  (:func:`repro.profiling.timeline.stitch_service_trace`) merges these
  wall-clock spans with the engine's sim-time telemetry into one
  Perfetto timeline.
* :mod:`repro.obs.metrics` -- deterministic counter/gauge/histogram
  registry behind the daemon ``metrics`` op and the
  ``repro serve --metrics-port`` Prometheus endpoint.
* :mod:`repro.obs.sanitize` -- the ``REPRO_SANITIZE`` runtime twin of
  arclint's process-safety and async-safety models: one journal of the
  file writes and loop-thread stalls a run actually performs.

This package sits in both arclint safety scopes: process-safety
(ARC009-012 -- it adds no writes to shared resources; spans ride
:func:`repro.obslog.emit`, and the sanitizer writes its journal with
single O_APPEND writes) and async-safety (ARC013-016 -- metric
updates are pure in-memory, span emission routes through the
allowlisted obslog writer, and no coroutine calls the journal writer).
"""

from repro.obs import metrics, tracing

__all__ = ["metrics", "tracing"]
