"""Shared pieces of the repo benchmark: paths, inputs, spans and stats.

Everything here runs from the root of a source checkout.  The program
under test is imported from ``src/`` of that checkout, never from an
installed copy, so a run measures exactly the tree it was started in.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch state of every run (caches, sockets, spools, span dumps).
#: Lives inside the checkout and is listed in the root ``.gitignore``.
STATE = ROOT / ".perfbench"

#: Environment knobs of the program that would change what a run does.
#: They are cleared so the benchmark measures the default configuration.
PROGRAM_ENV = (
    "REPRO_OBSLOG", "REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_TRACE",
    "REPRO_IOSAN_LOG", "REPRO_LOOPSAN_LOG", "REPRO_MAX_ATTEMPTS",
    "REPRO_CELL_TIMEOUT", "REPRO_JOBS", "REPRO_NO_DISK_CACHE",
    "REPRO_CACHE_DIR", "REPRO_SERVICE_SOCKET",
)


class SourceMissing(RuntimeError):
    """The working directory is not a source checkout of the program."""


def bootstrap() -> None:
    """Put the checkout's ``src`` on the import path, or fail typed."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(
            f"no program source under {SRC}: run from the root of a "
            "checkout that holds src/repro"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] (0.0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Tracing: spans kept in memory, written out when the run ends
# --------------------------------------------------------------------- #


class Recorder:
    """In-memory span store for one run.

    A span is ``(name, start, end, parent, attrs)`` with times in
    ``perf_counter`` seconds and ``parent`` the index of the span that
    caused it.  A layer's self time is its spans' durations minus the
    part covered by their children.  A disabled recorder records
    nothing, so the untraced path pays one predicate per call.
    """

    def __init__(self, workload: str, run_id: str, enabled: bool):
        self.workload = workload
        self.run_id = run_id
        self.enabled = enabled
        self.spans: "list[tuple]" = []

    def add(self, name: str, start: float, end: float,
            parent: "int | None" = None, **attrs) -> "int | None":
        if not self.enabled:
            return None
        self.spans.append((name, start, end, parent, attrs))
        return len(self.spans) - 1

    def _child_ms(self) -> "list[float]":
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _attrs in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [value * 1e3 for value in covered]

    def self_durations_ms(self, name: str, **match) -> "list[float]":
        """Self time of each span called *name* whose attrs match."""
        covered = self._child_ms()
        return [
            (end - start) * 1e3 - covered[index]
            for index, (span_name, start, end, _parent, attrs)
            in enumerate(self.spans)
            if span_name == name
            and all(attrs.get(key) == value for key, value in match.items())
        ]

    def self_ms(self, name: str, **match) -> float:
        return sum(self.self_durations_ms(name, **match))

    def total_ms(self, name: str, **match) -> float:
        return sum(self.durations_ms(name, **match))

    def durations_ms(self, name: str, **match) -> "list[float]":
        return [
            (end - start) * 1e3
            for span_name, start, end, _parent, attrs in self.spans
            if span_name == name
            and all(attrs.get(key) == value for key, value in match.items())
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, attrs) in enumerate(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "workload": self.workload,
                    "run_id": self.run_id, **attrs,
                }, sort_keys=True) + "\n")


@functools.cache
def timed_strategy_class():
    """Build the plan-timing wrapper lazily (needs ``repro`` importable)."""
    from repro.core.base import AtomicStrategy

    class TimedStrategy(AtomicStrategy):
        """Delegating strategy that times every ``plan_batch`` call.

        It keeps the wrapped strategy's report name, so the simulation
        result -- and its digest -- is the one the bare strategy gives.
        """

        def __init__(self, inner):
            self.inner = inner
            self.name = inner.name
            self.plan_ns = 0
            self.calls = 0

        def begin_kernel(self, trace, config):
            self.inner.begin_kernel(trace, config)

        def plan_batch(self, batch, engine):
            start = time.perf_counter_ns()
            plan = self.inner.plan_batch(batch, engine)
            self.plan_ns += time.perf_counter_ns() - start
            self.calls += 1
            return plan

        def end_kernel(self, engine):
            return self.inner.end_kernel(engine)

        def reduce_batch_values(self, lane_slots, values):
            return self.inner.reduce_batch_values(lane_slots, values)

    return TimedStrategy


def timed_simulate(recorder: Recorder, trace, config, strategy_name: str):
    """One traced ``simulate_kernel`` call: a cell span with the plan
    time as one aggregated child span (one span per ``plan_batch`` call
    would cost more than the call itself)."""
    from repro.experiments.runner import make_strategy
    from repro.gpu import simulate_kernel

    strategy = timed_strategy_class()(make_strategy(strategy_name))
    start = time.perf_counter()
    result = simulate_kernel(trace, config, strategy)
    end = time.perf_counter()
    cell = recorder.add("gpu.simulate_kernel", start, end,
                        strategy=strategy_name, batches=trace.n_batches)
    recorder.add("core.plan_batch", start, start + strategy.plan_ns / 1e9,
                 cell, strategy=strategy_name, calls=strategy.calls)
    return result


def engine_layer_metrics(recorder: Recorder, results, passes: int = 1) -> dict:
    """``core.*`` and ``gpu.*`` numbers of one pass over the distinct
    cells *results* came from, averaged over the *passes* recorded.

    Times come per registry strategy (0 for strategies not run); the
    simulated work counts come from *results* themselves.
    """
    from repro.experiments.runner import STRATEGY_FACTORIES

    metrics = {}
    for name in STRATEGY_FACTORIES:
        metrics[f"core.plan_ms.{name}"] = (
            recorder.total_ms("core.plan_batch", strategy=name) / passes,
            "ms")
        metrics[f"gpu.engine_self_ms.{name}"] = (
            recorder.self_ms("gpu.simulate_kernel", strategy=name) / passes,
            "ms")
    batches = sum(attrs["batches"] for name, _s, _e, _p, attrs
                  in recorder.spans if name == "gpu.simulate_kernel")
    calls = sum(attrs["calls"] for name, _s, _e, _p, attrs
                in recorder.spans if name == "core.plan_batch")
    engine_self = recorder.self_ms("gpu.simulate_kernel")
    metrics["core.plan_calls"] = (calls // passes, "count")
    metrics["gpu.host_ns_per_batch"] = (
        engine_self * 1e6 / batches if batches else 0.0, "ns")
    results = list(results)
    metrics["gpu.transactions"] = (
        sum(r.transactions for r in results), "count")
    metrics["gpu.rop_ops"] = (sum(r.rop_ops for r in results), "count")
    metrics["gpu.lsu_full_events"] = (
        sum(r.lsu_full_events for r in results), "count")
    return metrics


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the run's result object as the last line of stdout."""
    record = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
