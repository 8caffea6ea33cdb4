"""``sweep``: a serial, in-process figure sweep (engine-bound).

One Table-2 row per paper application, each built with the public
workload classes from the Table-2 scene parameters of 3D-TK, PS-SL and
NV-SP, rendered at a reduced resolution so one pass over the seven
report strategies takes a few seconds.  Every cell is a fresh
``simulate_kernel`` call on ``4090-Sim`` with no cache; SW-B is skipped
on divergent traces, exactly like the figure runner.

Times are reported on a reference host: each pass's (and each set-up's)
host seconds are scaled by the speed of a fixed calibration loop timed
between its cells, so most of a change of host speed during or between
runs cancels out, while a change of the program's speed does not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from common import (
    Recorder,
    engine_layer_metrics,
    log,
    median,
    peak_rss_mb,
    percentile,
    timed_simulate,
)

GPU = "4090-Sim"
#: The seven strategies every paper figure reports.
REPORT_STRATEGIES = (
    "baseline", "ARC-HW", "ARC-SW-B-8", "ARC-SW-S-8", "CCCL", "LAB", "PHI",
)
#: Per-cell latency limit behind ``goodput_frac`` on this workload.
LATENCY_LIMIT_MS = 5000.0
#: Set-up repeats; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of the traced passes' wall time the per-layer times must cover.
MIN_CLOSURE = 0.9
#: Calibration chunks before each cell (about 3 ms; a cell takes 50-400).
CELL_CHUNKS = 2


#: Iterations of one calibration chunk: a fixed loop owned by the
#: benchmark, so no change to the program can move its time.
CAL_LOOP = 20000
#: Chunk time that defines the reference host speed.
CAL_REF_MS = 1.5
#: Chunks per set-up calibration point.
CAL_CHUNKS = 8


def calibrate(chunks: int = CAL_CHUNKS) -> "list[float]":
    """Time *chunks* calibration chunks; returns each one's ms.

    On a shared 2-CPU virtual machine the engine ran up to 1.7x faster
    or slower for minutes at a time: five 30-s runs read 128k-212k
    simulated batches/s on the host clock and 132k-152k on the reference
    host, where a chunk takes ``CAL_REF_MS``.  The chunks run between the
    cells, and :func:`speed_factor` turns them into the factor that puts
    a time on the reference host.
    """
    out = []
    for _ in range(chunks):
        start = time.perf_counter()
        total = 0
        for i in range(CAL_LOOP):
            total += i * i
        out.append((time.perf_counter() - start) * 1e3)
    return out


def speed_factor(chunk_ms) -> float:
    """Reference-host seconds per host second around *chunk_ms*."""
    return CAL_REF_MS / median(chunk_ms)


def _applications(seed: int):
    """``(application, workload)`` rows; the seed offsets each Table-2
    scene seed, so seed 0 reproduces the registry scenes' seeds."""
    from repro.workloads import CubemapWorkload, GaussianWorkload, SphereWorkload

    return [
        ("3DGS", GaussianWorkload(
            "3D-TK", "TanksTemples-Truck", "3DGS on a Truck-scale scene",
            n_gaussians=1250, base_scale=0.15, extent=1.85, n_clusters=32,
            width=64, height=64, trace_views=1, seed=14 + 1000 * seed,
        )),
        ("Pulsar", SphereWorkload(
            "PS-SL", "SyntheticSpheres-Large", "Pulsar, large sphere cloud",
            n_spheres=1400, base_radius=0.11, extent=1.8, n_clusters=28,
            width=128, height=96, trace_views=1, seed=31 + 1000 * seed,
        )),
        ("NvDiffRec", CubemapWorkload(
            "NV-SP", "KeenanCrane-Spot", "NvDiffRec cubemap, Spot mesh",
            cubemap_resolution=10, width=176, height=176, n_blobs=32,
            trace_views=2, seed=21 + 1000 * seed,
        )),
    ]


def _capture(seed: int, recorder: Recorder):
    traces = {}
    for app, workload in _applications(seed):
        start = time.perf_counter()
        traces[app] = workload.capture_trace()
        recorder.add("workloads.capture", start, time.perf_counter(),
                     app=app)
    return traces


def _cells(traces):
    return [
        (app, strategy)
        for app, trace in traces.items()
        for strategy in REPORT_STRATEGIES
        if "SW-B" not in strategy or trace.bfly_eligible
    ]


def _pass(traces, config, cells, reference, recorder):
    """One timed pass over every cell, with calibration chunks between
    the cells (outside the timed intervals).

    Returns ``(busy_s, batches, samples, chunk_ms)`` with one ``(cell,
    latency_ms, ok)`` sample per cell; a digest mismatch or an exception
    is not ok.
    """
    from repro.bench.metrics import sim_digest
    from repro.experiments.runner import make_strategy
    from repro.gpu import simulate_kernel

    samples = []
    batches = 0
    busy = 0.0
    chunks = []
    for cell in cells:
        app, strategy = cell
        trace = traces[app]
        chunks += calibrate(CELL_CHUNKS)
        cell_start = time.perf_counter()
        try:
            if recorder.enabled:
                result = timed_simulate(recorder, trace, config, strategy)
            else:
                result = simulate_kernel(trace, config,
                                         make_strategy(strategy))
        except Exception as exc:  # a failed cell is a counted record
            log(f"sweep: cell {app}/{strategy} raised {exc!r}")
            samples.append((cell, float("inf"), False))
            continue
        ok = sim_digest(result) == reference[cell]
        cell_s = time.perf_counter() - cell_start
        busy += cell_s
        if not ok:
            log(f"sweep: digest mismatch on {app}/{strategy}")
        samples.append((cell, cell_s * 1e3, ok))
        batches += trace.n_batches
    return busy, batches, samples, chunks + calibrate(CELL_CHUNKS)


@dataclass
class Passes:
    """Timed passes of one kind (traced or not).

    Rates and latencies are on the reference host (see
    :func:`calibrate`); ``wall`` is host seconds.
    """

    batch_rates: list = field(default_factory=list)
    cell_rates: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    chunks: list = field(default_factory=list)
    wall: float = 0.0

    def cell_latencies(self) -> "list[float]":
        """Each cell's median time over the passes.

        A cell runs once per pass, so the median over passes drops a
        pass that an unrelated slowdown of the host hit.
        """
        by_cell = {}
        for cell, latency, ok in self.samples:
            if ok:
                by_cell.setdefault(cell, []).append(latency)
        return [median(values) for values in by_cell.values()]


def _measure(traces, config, cells, reference, recorders, budget):
    """Whole passes until *budget* seconds are spent (at least one per
    recorder), taking turns over *recorders*.

    Returns ``{recorder.enabled: Passes}``.
    """
    outcome = {recorder.enabled: Passes() for recorder in recorders}
    deadline = time.perf_counter() + budget
    turn = 0
    while turn < len(recorders) or time.perf_counter() < deadline:
        recorder = recorders[turn % len(recorders)]
        turn += 1
        pass_s, batches, samples, chunks = _pass(
            traces, config, cells, reference, recorder)
        factor = speed_factor(chunks)
        passes = outcome[recorder.enabled]
        passes.batch_rates.append(batches / (pass_s * factor))
        passes.cell_rates.append(len(samples) / (pass_s * factor))
        passes.samples.extend((cell, latency * factor, ok)
                              for cell, latency, ok in samples)
        passes.chunks.extend(chunks)
        passes.wall += pass_s
    for traced, passes in outcome.items():
        log(f"sweep: {len(passes.batch_rates)} passes of {len(cells)} "
            f"cells, {median(passes.batch_rates):.0f} batches/s "
            f"(traced={traced})")
    return outcome


def run(seed: int, seconds: float, trace: bool, run_id: str) -> dict:
    from repro.bench.metrics import sim_digest
    from repro.gpu import SIMULATED_GPUS, simulate_kernel
    from repro.experiments.runner import make_strategy

    config = SIMULATED_GPUS[GPU]
    recorder = Recorder("sweep", run_id, enabled=trace)
    setup_times = []
    captures = []
    for _ in range(SETUP_REPEATS):
        chunks = calibrate()
        start = time.perf_counter()
        captures.append(_capture(seed, recorder))
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * speed_factor(chunks + calibrate()))
    traces = captures[-1]
    # Capture is deterministic: every set-up must give identical traces.
    failed = sum(
        1 for capture in captures[:-1] for app in traces
        if capture[app].fingerprint != traces[app].fingerprint
    )
    attempted = len(captures) * len(traces)
    cells = _cells(traces)

    # Reference results: one untimed pass, which also fills the traces'
    # cached coalescing so timed passes measure the engine alone.
    reference = {
        (app, strategy): simulate_kernel(traces[app], config,
                                         make_strategy(strategy))
        for app, strategy in cells
    }
    digests = {cell: sim_digest(result) for cell, result in reference.items()}

    # The traced run alternates untraced and traced passes; the gap
    # between their rates is the tracing overhead.
    recorders = [Recorder("sweep", run_id, enabled=False)]
    if trace:
        recorders.append(recorder)
    outcome = _measure(traces, config, cells, digests, recorders, seconds)
    for passes in outcome.values():
        attempted += len(passes.samples)
        failed += sum(1 for _cell, _lat, ok in passes.samples if not ok)

    if not trace:
        passes = outcome[False]
        good = sum(1 for _cell, lat, ok in passes.samples
                   if ok and lat <= LATENCY_LIMIT_MS)
        latencies = passes.cell_latencies()
        log(f"sweep: {len(passes.samples)} cell runs, "
            f"{len(latencies)} cell latencies")
        return {"attempted": attempted, "failed": failed, "metrics": {
            "setup_s": (median(setup_times), "s"),
            "sim_batches_per_s": (median(passes.batch_rates), "1/s"),
            "latency_ms_p50": (percentile(latencies, 50), "ms"),
            "latency_ms_p95": (percentile(latencies, 95), "ms"),
            "goodput_frac": (good / len(passes.samples), "frac"),
            "requests_per_s": (median(passes.cell_rates), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }}

    traced = outcome[True]
    metrics = {
        f"workloads.capture_ms.{app}": (
            median(recorder.durations_ms("workloads.capture", app=app)),
            "ms")
        for app in traces
    }
    metrics.update(engine_layer_metrics(recorder, reference.values(),
                                        passes=len(traced.batch_rates)))
    # Plan plus engine self time is the simulate_kernel span; the rest of
    # a pass is the digest check and strategy construction.  A breakdown
    # that leaves more than a tenth of the pass unattributed is a failed
    # operation.
    closure = recorder.total_ms("gpu.simulate_kernel") / (traced.wall * 1e3)
    attempted += 1
    if closure < MIN_CLOSURE:
        failed += 1
        log(f"sweep: breakdown closes only {closure:.3f} of the traced "
            f"passes' wall time (need {MIN_CLOSURE})")
    metrics["breakdown_closure_frac"] = (closure, "frac")
    base_rate = median(outcome[False].batch_rates)
    metrics["trace_overhead_frac"] = (
        (base_rate - median(traced.batch_rates)) / base_rate, "frac")
    metrics["host.calib_ms"] = (median(
        chunk for passes in outcome.values() for chunk in passes.chunks),
        "ms")
    metrics["failed_frac"] = (failed / attempted, "frac")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "recorder": recorder}
