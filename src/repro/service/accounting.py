"""The service's accounting record: one outcome table, three projections.

Everything the broker and its pool supervisor count is an *outcome*
(a request, a coalesce, a shed, a failed attempt, a breaker trip, ...).
:data:`OUTCOMES` declares each once -- its ``snapshot()["stats"]`` key,
its Prometheus counter family and its ``svc.*`` obslog event -- and
:meth:`Recorder.record` is the only call that moves any of the three, so
the status counters, the scraped samples and the event stream agree by
construction.  A record's labels go to the row's family (the names it
declares) and into the event's fields.  ``also`` names an outcome the
same call records with the same labels and fields: a failed attempt is
a ``failure`` *and* an ``attempt{outcome}``, an invalid request is also
a ``request``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import MappingProxyType

from repro import obslog
from repro.obs import metrics as obsmetrics

__all__ = ["BREAKER_STATES", "OUTCOMES", "Outcome", "Recorder"]


@dataclass(frozen=True)
class Outcome:
    """One row: where a recorded outcome is projected."""

    family: str
    help: str
    stat: "str | None" = None
    event: "str | None" = None
    labels: "tuple[str, ...]" = ()
    also: "str | None" = None


OUTCOMES = {
    "request": Outcome("repro_service_requests_total", "Requests received",
                       "requests", "svc.accept"),
    "admitted": Outcome("repro_service_admitted_total",
                        "Requests admitted to queue", "admitted"),
    "coalesced": Outcome("repro_service_coalesced_total",
                         "Requests coalesced onto an in-flight execution",
                         "coalesced", "svc.coalesce"),
    "memo_hit": Outcome("repro_service_memo_hits_total",
                        "Requests answered from the session memo", "memo_hits"),
    "shed": Outcome("repro_service_shed_total", "Requests shed at admission",
                    "shed", "svc.shed"),
    "degraded": Outcome("repro_service_degraded_total", "Degraded executions",
                        "degraded", "svc.degrade", ("reason",)),
    "deadline_miss": Outcome("repro_service_deadline_misses_total",
                             "Requests expired before completion",
                             "deadline_misses", "svc.deadline"),
    "execution": Outcome("repro_service_executions_total",
                         "Pool attempt submissions", "executions"),
    "failure": Outcome("repro_service_failures_total", "Failed attempts",
                       "failures", "svc.attempt", also="attempt"),
    "journal_recovery": Outcome(
        "repro_service_journal_recoveries_total",
        "Crash recoveries served from journal + disk cache",
        "journal_recoveries", "svc.recover"),
    "completed": Outcome("repro_service_completed_total", "Completed executions",
                         "completed", "svc.finish", ("source",)),
    "invalid": Outcome("repro_service_invalid_total",
                       "Requests naming an unknown workload, GPU or strategy",
                       "invalid", also="request"),
    "attempt": Outcome("repro_service_attempts_total", "Attempt outcomes",
                       labels=("outcome",)),
    "breaker_trip": Outcome("repro_service_breaker_trips_total",
                            "Breaker trips", event="svc.breaker"),
    "pool_restart": Outcome("repro_service_pool_restarts_total",
                            "Worker pool respawns", event="svc.pool.restart"),
    "probe": Outcome("repro_service_pool_probes_total", "Half-open health probes",
                     labels=("outcome",)),
}

#: ``repro_service_breaker_state`` encodes a breaker state as its index.
BREAKER_STATES = ("closed", "half-open", "open")

GAUGES = {
    "queue_depth": ("repro_service_queue_depth", "Configured queue capacity"),
    "queue_size": ("repro_service_queue_size", "Live queue occupancy"),
    "inflight": ("repro_service_inflight", "In-flight unique executions"),
    "breaker_state": ("repro_service_breaker_state",
                      "Circuit breaker state (0 closed, 1 half-open, 2 open)"),
}

#: The two ``svc.*`` span names are also sampled into ``span_samples``.
HISTOGRAMS = {
    "deadline_budget": ("repro_service_deadline_budget_seconds",
                        "Deadline budget declared at admission"),
    "request_latency": ("repro_service_request_latency_seconds",
                        "Admission-to-response latency"),
    "svc.queue_wait": ("repro_service_queue_wait_seconds",
                       "Enqueue-to-dispatch wait"),
    "svc.execute": ("repro_service_execute_seconds",
                    "Dispatch-to-completion execution time"),
}


class Recorder:
    """Applies :data:`OUTCOMES` for one broker: a private tally plus the
    (by default process-wide) metrics registry and the obslog."""

    def __init__(self, registry: "obsmetrics.MetricsRegistry | None" = None,
                 clock=time.monotonic):
        self.registry = (registry if registry is not None
                         else obsmetrics.registry())
        self._clock = clock
        self._t0 = clock()
        self._tally: "dict[tuple, int]" = {}
        #: Recent span durations (ms) for the bench breakdown, bounded.
        self.span_samples: "dict[str, list[float]]" = {}
        self._counters = {name: self.registry.counter(row.family, row.help,
                                                      labelnames=row.labels)
                          for name, row in OUTCOMES.items()}
        self._gauges = {name: self.registry.gauge(*spec)
                        for name, spec in GAUGES.items()}
        self._histograms = {name: self.registry.histogram(*spec)
                            for name, spec in HISTOGRAMS.items()}

    def event(self, event: str, **fields) -> None:
        """Emit one ``svc.*`` event stamped with ``elapsed_ms`` on this
        recorder's monotonic clock, so readers can order service events
        without trusting wall-clock ``ts`` across processes."""
        fields.setdefault(
            "elapsed_ms", round((self._clock() - self._t0) * 1000.0, 3)
        )
        obslog.emit(event, **fields)

    def record(self, outcome: str, labels: "dict | None" = None, /,
               **fields) -> None:
        """Count one *outcome* in all three projections."""
        row = OUTCOMES[outcome]
        labels = labels or {}
        own = {name: labels[name] for name in row.labels}
        key = (outcome, tuple(sorted(own.items())))
        self._tally[key] = self._tally.get(key, 0) + 1
        self._counters[outcome].inc(**own)
        if row.also is not None:
            self.record(row.also, labels, **fields)
        if row.event is not None:
            self.event(row.event, **labels, **fields)

    def count(self, outcome: str, /, **labels) -> int:
        """Tally of *outcome* over the series matching *labels*."""
        want = set(labels.items())
        return sum(n for (name, series), n in self._tally.items()
                   if name == outcome and want <= set(series))

    @property
    def stats(self) -> "MappingProxyType[str, int]":
        """Read-only ``{stat key: count}`` for every row that has one."""
        return MappingProxyType({row.stat: self.count(name)
                                 for name, row in OUTCOMES.items()
                                 if row.stat is not None})

    def observe(self, name: str, seconds: float) -> None:
        self._histograms[name].observe(seconds)

    def observe_span(self, name: str, dur_ms: float) -> None:
        """A span duration, into its histogram and the bounded samples."""
        self.observe(name, dur_ms / 1000.0)
        samples = self.span_samples.setdefault(name, [])
        if len(samples) < 4096:
            samples.append(dur_ms)

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name].set(value)
