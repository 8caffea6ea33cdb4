"""``serve_fresh``: the simulation service under a closed loop.

The workload starts a bench-owned daemon host (``daemon_host.py``) on a
private socket with a private, empty disk cache, warms it with one
request per trace, and talks to it over the daemon's JSON-lines protocol.
The timed phase is one client on one persistent connection that sends
the next fresh (trace, GPU, registry strategy) cell, in seeded order, as
soon as the previous reply arrives, until ``--seconds`` are spent.  No
cell is asked twice, so every request takes the full service path.

The client, the daemon and its pool workers all run on one CPU (see
:func:`_pin_one_cpu`), and the client times a host probe on that CPU
between requests, which puts the run's times on a reference host (see
:class:`HostProbe`).

Every reply is checked against the digest of an in-process
``simulate_kernel`` run of the same cell, made outside the timed region.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import common
from common import log, median, percentile
from daemon_host import service_traces

#: Fresh cells are made for this many requests per second, above the
#: closed loop's rate (122-139/s on the host clock of a 2-CPU virtual
#: machine); the timed phase ends early, with a note on stderr, if they
#: run out.
MAX_RATE = 180.0
#: Requests slower than this miss the latency limit behind
#: ``goodput_frac``.
LATENCY_LIMIT_MS = 1000.0
#: Connections of the warm-up, so that both pool workers spawn in set-up.
WARM_CONNECTIONS = 2
#: The timed phase probes the host before every this many requests...
PROBE_EVERY = 8
#: ... after waiting this long for the service to finish its work on the
#: previous request ...
QUIET_S = 0.002
#: ... and converts each window of this many requests to the reference
#: host with the median of the window's probes.
WINDOW = 128
#: Probes timed before and after each set-up.
SETUP_PROBES = 16
SETUP_REPEATS = 3
GPUS = ("3060-Sim", "4090-Sim")
#: Warm-up cell of each trace.
WARM = ("3060-Sim", "baseline")
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0


class DaemonHost:
    """One daemon host process on a private socket and cache."""

    def __init__(self, rundir: Path, seed: int, triples: int):
        self.rundir = common.fresh_dir(rundir)
        (rundir / "tmp").mkdir()
        # Relative to the checkout root: a unix socket path is limited to
        # ~100 bytes, and the checkout may live at a long path.
        self.socket = str(rundir.relative_to(common.ROOT) / "d.sock")
        self.report = rundir / "report.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(common.SRC), str(common.BENCH_DIR)])
        env["REPRO_CACHE_DIR"] = str(rundir / "cache")
        env["TMPDIR"] = str(rundir / "tmp")
        self.log = open(rundir / "host.log", "w")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "daemon_host.py"),
             "--socket", self.socket, "--seed", str(seed),
             "--triples", str(triples), "--report", str(self.report)],
            cwd=common.ROOT, env=env, stdout=self.log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )

    def wait_listening(self) -> float:
        """Block until the socket accepts; returns launch-to-listen ms."""
        deadline = self.launched + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon host exited with {self.proc.returncode}; "
                    f"see {self.rundir / 'host.log'}")
            try:
                with socket.socket(socket.AF_UNIX) as probe:
                    probe.connect(self.socket)
                return (time.perf_counter() - self.launched) * 1e3
            except OSError:
                time.sleep(0.005)
        raise TimeoutError("daemon host did not start listening")

    def call(self, payload: dict) -> dict:
        from repro.service import call

        return call(payload, self.socket, timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> dict:
        """``shutdown`` op, then reap; the host's report (or {})."""
        try:
            self.call({"op": "shutdown"})
            self.proc.wait(timeout=30)
        except Exception as exc:
            log(f"serve: clean shutdown failed ({exc!r}); killing host")
        finally:
            self.kill()
        try:
            return json.loads(self.report.read_text())
        except (OSError, ValueError):
            return {}

    def kill(self) -> None:
        """Kill the host's whole process group (pool workers included)."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # orphaned workers
        except ProcessLookupError:
            pass
        self.log.close()


@functools.cache
def _payload(cell) -> bytes:
    trace, gpu, strategy = cell
    return (json.dumps({"op": "simulate", "workload": trace, "gpu": gpu,
                        "strategy": strategy}) + "\n").encode()


def _pin_one_cpu() -> "set[int]":
    """Pin this process to one CPU and return its former CPU set.

    The daemon host and its pool workers inherit the pin.  On a shared
    2-CPU virtual machine, with the client and the service free to use
    both CPUs, the same closed-loop run read a latency p50 of 6.3 ms
    and then 8.7 ms; on one CPU, three runs read 6.0-6.2 ms.  A request
    is a chain of hand-offs (client, daemon, pool worker and back), and
    each hand-off to the other, idle CPU waits for the host to wake it.
    The closed loop sends one request at a time, so one CPU loses no
    parallelism.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


class HostProbe:
    """Two fixed loops owned by the benchmark, timed on the client's CPU
    (which is also the service's) between requests.

    On a shared 2-CPU virtual machine the same code ran at speeds that
    stepped between a few levels for seconds to minutes at a time: five
    30-s runs of this workload read a latency p50 of 5.3-7.0 ms.  One
    loop is pure-Python arithmetic, like the interpreter work of the
    client, daemon and worker; the other reads 50,000 random entries of
    a 32-MiB table, like the engine's memory traffic.  Each set of
    times is put on the reference host (where the loops take
    ``ALU_REF_MS`` and ``GATHER_REF_MS``) with the geometric mean of
    the two loops' speed ratios.  The loops are the benchmark's own
    code, so a program change can move their times only through the
    caches they share with the service (see :meth:`_gather`), and a
    program speed-up or slow-down shows almost in full.  Both loops are
    timed on the thread's CPU clock, so a service process that still
    runs when a probe starts does not count.
    """

    ALU_REF_MS = 0.4
    GATHER_REF_MS = 0.5

    def __init__(self, seed: int):
        import numpy as np

        self.np = np
        self.table = np.arange(8 << 20, dtype=np.int32)
        self.index = np.random.default_rng(seed).integers(
            0, len(self.table), 50_000)
        # Preallocated buffers: a fresh one would page-fault, and the
        # cost of a page fault depends on what the client allocated
        # before.
        self.where = np.empty_like(self.index)
        self.out = np.empty(len(self.index), dtype=self.table.dtype)
        self.shift = 0
        self.times_ms: "list[tuple[float, float]]" = []

    def __call__(self) -> None:
        """Time both loops once and keep ``(alu_ms, gather_ms)``.

        An untimed gather runs first, so the page-table entries of the
        table are cached whatever ran before.
        """
        start = time.thread_time()
        total = 0
        for i in range(5000):
            total += i * i
        alu = time.thread_time() - start
        self._gather()
        self.times_ms.append((alu * 1e3, self._gather() * 1e3))

    def _gather(self) -> float:
        """Read a new set of random entries; returns the thread seconds.

        A set read again soon would stay in the caches; a new one misses
        them whatever ran before.  With a fixed set, the gather read
        about twice as slow after fresh-cell requests as after ``status``
        requests, so it measured the service's cache footprint; with a
        new set the two read about the same.
        """
        self.shift = (self.shift + 1_234_567) % len(self.table)
        np = self.np
        np.add(self.index, self.shift, out=self.where)
        np.remainder(self.where, len(self.table), out=self.where)
        start = time.thread_time()
        self.table.take(self.where, out=self.out)
        return time.thread_time() - start

    @classmethod
    def factor(cls, times_ms) -> float:
        """Reference-host seconds per host second around *times_ms*."""
        alu = median(a for a, _g in times_ms)
        gather = median(g for _a, g in times_ms)
        return (cls.ALU_REF_MS / alu * cls.GATHER_REF_MS / gather) ** 0.5

    def around(self, action):
        """Run *action* between two sets of probes; returns its result
        and the factor of those probes."""
        for _ in range(SETUP_PROBES):
            self()
        before = len(self.times_ms) - SETUP_PROBES
        result = action()
        for _ in range(SETUP_PROBES):
            self()
        return result, self.factor(self.times_ms[before:])


@dataclass
class Sample:
    """One request: when it was sent and answered, and its reply.

    ``gap`` is the client's own turnaround: the time from the previous
    reply (or host probe) on the connection to this send.  ``span`` is
    the index of the request's span in a traced run.  ``factor`` puts
    its times on the reference host.  :func:`_check` fills in the last
    three fields.
    """

    cell: tuple
    sent: float
    done: float
    line: "bytes | None"
    gap: float = 0.0
    span: "int | None" = None
    factor: float = 1.0
    ok: bool = False
    broker_ms: float = 0.0
    nbytes: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3

    @property
    def busy_s(self) -> float:
        """Client turnaround plus latency, on the reference host."""
        return (self.gap + self.done - self.sent) * self.factor


class _Conn:
    def __init__(self, path: str):
        self.path = path
        self.reader = self.writer = None

    async def request(self, data: bytes) -> bytes:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_unix_connection(
                self.path, limit=1 << 22)
        try:
            self.writer.write(data)
            await self.writer.drain()
            line = await asyncio.wait_for(self.reader.readline(),
                                          REQUEST_TIMEOUT_S)
            if not line:
                raise ConnectionError("daemon closed the connection")
            return line
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


async def _send(conn, cell, gap, recorder, samples):
    sent = time.perf_counter()
    try:
        line = await conn.request(_payload(cell))
    except (OSError, asyncio.TimeoutError, ConnectionError) as exc:
        log(f"serve: request for {cell} failed: {exc!r}")
        line = None
    done = time.perf_counter()
    # Recorded after the reply is timed, so tracing adds nothing to the
    # measured latency.
    span = recorder.add("service.request", sent, done)
    samples.append(Sample(cell, sent, done, line, gap, span))
    return done


async def _closed_loop(path, cells, recorder, connections=1,
                       seconds=None, probe=None):
    """Send *cells* in order over *connections* persistent connections,
    each sending its next cell as soon as its previous reply arrives,
    until every cell is sent or *seconds* have passed.  With a *probe*,
    it is timed before every ``PROBE_EVERY``-th send, ``QUIET_S`` after
    the previous reply."""
    samples = []
    pending = iter(cells)
    deadline = (None if seconds is None
                else time.perf_counter() + seconds)

    async def sender(conn):
        last = time.perf_counter()
        for cell in pending:
            if probe is not None and len(samples) % PROBE_EVERY == 0:
                time.sleep(QUIET_S)
                probe()
                last = time.perf_counter()
            last = await _send(conn, cell, time.perf_counter() - last,
                               recorder, samples)
            if deadline is not None and last >= deadline:
                break
        conn.close()

    await asyncio.gather(*(
        sender(_Conn(path)) for _ in range(connections)))
    return samples


def _cells(traces):
    from repro.experiments.runner import STRATEGY_FACTORIES

    return [
        (name, gpu, strategy)
        for name, trace in traces.items()
        for gpu in GPUS
        for strategy in STRATEGY_FACTORIES
        if "SW-B" not in strategy or trace.bfly_eligible
    ]


def _references(traces, cells, recorder):
    """In-process results and engine ms of *cells*, outside the timed
    region (with plan timing when traced)."""
    from repro.experiments.runner import make_strategy
    from repro.gpu import SIMULATED_GPUS, simulate_kernel

    results, engine_ms = {}, {}
    for cell in cells:
        trace, gpu, strategy = cell
        start = time.perf_counter()
        if recorder.enabled:
            result = common.timed_simulate(
                recorder, traces[trace], SIMULATED_GPUS[gpu], strategy)
        else:
            result = simulate_kernel(traces[trace], SIMULATED_GPUS[gpu],
                                     make_strategy(strategy))
        engine_ms[cell] = (time.perf_counter() - start) * 1e3
        results[cell] = result
    return results, engine_ms


def _check(samples, digests) -> int:
    """Decode and verify every reply; returns the number that failed.

    A reply is ok when its status is ok and its result has the reference
    digest.  A result equal to one already verified for the same cell
    has that digest too, so only the first reply per cell is hashed.
    """
    from repro.bench.metrics import sim_digest
    from repro.gpu import SimResult

    verified = {}
    failed = 0
    for sample in samples:
        if sample.line is None:
            failed += 1
            continue
        sample.nbytes = len(sample.line)
        try:
            reply = json.loads(sample.line)
            result = reply["result"] if reply.get("status") == "ok" else None
            sample.ok = result is not None and (
                result == verified.get(sample.cell)
                or sim_digest(SimResult.from_dict(result))
                == digests[sample.cell])
            sample.broker_ms = reply.get("latency_ms", 0.0)
        except (ValueError, KeyError, TypeError):
            sample.ok = False
        if sample.ok:
            verified.setdefault(sample.cell, result)
        else:
            failed += 1
            log(f"serve: bad reply for {sample.cell}: {sample.line[:200]!r}")
    return failed


def _status(host) -> dict:
    return host.call({"op": "status"})["snapshot"]["stats"]


def _layer_probes(traces, cells, results, rundir, recorder):
    """Spans of the trace and experiments layers' calls on this
    workload's inputs, made outside the timed region, and the per-layer
    numbers derived from them."""
    from repro.experiments import diskcache
    from repro.experiments.runner import make_strategy
    from repro.gpu import SIMULATED_GPUS
    from repro.trace.io import load_trace, save_trace

    (rundir / "spool").mkdir()
    for name, trace in traces.items():
        start = time.perf_counter()
        path = save_trace(trace, rundir / "spool" / f"{name}.npz")
        saved = time.perf_counter()
        loaded = load_trace(path)
        loaded_at = time.perf_counter()
        _ = loaded.fingerprint
        recorder.add("trace.spool_write", start, saved)
        recorder.add("trace.spool_load", saved, loaded_at)
        recorder.add("trace.fingerprint", loaded_at, time.perf_counter())

    cache = diskcache.DiskCache(rundir / "probe-cache")
    for cell in cells:
        trace, gpu, strategy = cell
        start = time.perf_counter()
        key = diskcache.result_key(SIMULATED_GPUS[gpu], traces[trace],
                                   make_strategy(strategy))
        keyed = time.perf_counter()
        cache.store(key, results[cell])
        stored = time.perf_counter()
        cache.load(key)
        recorder.add("experiments.result_key", start, keyed)
        recorder.add("experiments.cache_store", keyed, stored)
        recorder.add("experiments.cache_load", stored, time.perf_counter())

    env = dict(os.environ, PYTHONPATH=str(common.SRC))
    for _ in range(3):
        out = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); "
             "import repro.experiments.parallel; "
             "print(time.perf_counter() - t)"],
            env=env, cwd=common.ROOT, capture_output=True, text=True,
            timeout=60, check=True)
        end = time.perf_counter()
        recorder.add("experiments.worker_import",
                     end - float(out.stdout), end)

    metrics = {
        f"trace.{name}_ms": (recorder.total_ms(f"trace.{name}"), "ms")
        for name in ("spool_write", "spool_load", "fingerprint")
    }
    for name in ("result_key", "cache_store", "cache_load", "worker_import"):
        metrics[f"experiments.{name}_ms"] = (
            median(recorder.durations_ms(f"experiments.{name}")), "ms")
    return metrics


def _start(rundir, seed, triples, warm, probe):
    """Set up one daemon host: launch, listen, warm one cell per trace.

    The warm-up runs on two connections at once, so both pool workers
    spawn inside set-up.  Returns ``(host, setup_s, listen_ms,
    first_reply_ms, samples)``; ``setup_s`` is on the reference host,
    by the host probes timed just before and after the set-up.
    """
    hosts = []

    def set_up():
        host = DaemonHost(rundir, seed, triples)
        hosts.append(host)
        listen = host.wait_listening()
        listened = time.perf_counter()
        samples = asyncio.run(_closed_loop(
            host.socket, warm, common.Recorder("warm-up", "", False),
            connections=WARM_CONNECTIONS))
        first = (min(sample.done for sample in samples) - listened) * 1e3
        return time.perf_counter() - host.launched, listen, first, samples

    try:
        (setup, listen, first, samples), factor = probe.around(set_up)
    except BaseException:
        for host in hosts:
            host.kill()
        raise
    return hosts[0], setup * factor, listen, first, samples


def _put_on_reference_host(samples, probe_ms) -> None:
    """Set each sample's factor from the probes of its window.

    Probe ``k`` ran just before sample ``k * PROBE_EVERY``."""
    per_window = WINDOW // PROBE_EVERY
    for first in range(0, len(samples), WINDOW):
        index = first // PROBE_EVERY
        window = probe_ms[index:index + per_window]
        factor = HostProbe.factor(window)
        for sample in samples[first:first + WINDOW]:
            sample.factor = factor


def run(seed: int, seconds: float, trace: bool, run_id: str) -> dict:
    from repro.bench.metrics import sim_digest

    workload = "serve_fresh"
    rundir = common.fresh_dir(common.STATE / run_id)
    wanted = int(MAX_RATE * seconds)
    triples = 3
    while True:
        traces = service_traces(seed, triples)
        cells = _cells(traces)
        if len(cells) - len(traces) >= wanted:
            break
        triples += 1
    warm = [(name, *WARM) for name in traces]
    rng = random.Random(seed)
    fresh_cells = [cell for cell in cells if cell not in set(warm)]
    rng.shuffle(fresh_cells)
    fresh_cells = fresh_cells[:wanted]

    recorder = common.Recorder(workload, run_id, enabled=trace)
    setups, warm_samples = [], []
    host = None
    allowed = _pin_one_cpu()
    probe = HostProbe(seed)
    try:
        for repeat in range(SETUP_REPEATS):
            if host is not None:
                host.stop()
                host = None
            host, *timing, samples = _start(
                rundir / f"host{repeat}", seed, triples, warm, probe)
            setups.append(timing)
            warm_samples.extend(samples)
        before = _status(host)
        probe.times_ms.clear()
        start = time.perf_counter()
        samples = asyncio.run(_closed_loop(
            host.socket, fresh_cells, recorder, seconds=seconds,
            probe=probe))
        wall = max(sample.done for sample in samples) - start
        _put_on_reference_host(samples, probe.times_ms)
        after = _status(host)
        report = host.stop()
        host = None
    finally:
        if host is not None:
            host.kill()
        os.sched_setaffinity(0, allowed)
    if len(samples) == len(fresh_cells):
        log(f"{workload}: every fresh cell was sent after {wall:.2f}s; "
            "raise MAX_RATE")

    requested = sorted({sample.cell for sample in samples} | set(warm))
    results, engine_ms = _references(
        traces, requested, common.Recorder(workload, run_id, False))
    digests = {cell: sim_digest(result) for cell, result in results.items()}
    failed = _check(samples, digests) + _check(warm_samples, digests)
    attempted = len(samples) + len(warm_samples)
    if trace:
        # The traced replay feeds the core/gpu numbers; tracing must not
        # change a single result.
        traced_results, _ = _references(traces, requested, recorder)
        attempted += len(traced_results)
        failed += sum(1 for cell, result in traced_results.items()
                      if sim_digest(result) != digests[cell])
    counts = {key: after[key] - before[key] for key in after}
    done = [sample for sample in samples if sample.ok]
    log(f"{workload}: {len(samples)} timed requests in {wall:.2f}s, "
        f"{failed} failed of {attempted}")

    if not trace:
        # Times on the reference host; the latency limit applies to the
        # host clock.
        latencies = [sample.latency_ms * sample.factor for sample in done]
        busy = sum(sample.busy_s for sample in samples)
        metrics = {
            "setup_s": (median(s for s, _l, _f in setups), "s"),
            "sim_batches_per_s": (sum(
                results[sample.cell].n_batches for sample in done) / busy,
                "1/s"),
            "latency_ms_p50": (percentile(latencies, 50), "ms"),
            "latency_ms_p95": (percentile(latencies, 95), "ms"),
            "goodput_frac": (sum(
                1 for sample in done if sample.latency_ms <= LATENCY_LIMIT_MS)
                / len(samples), "frac"),
            "requests_per_s": (len(done) / busy, "1/s"),
            "peak_rss_mb": (report.get("peak_rss_mb", 0.0), "MB"),
        }
        return {"attempted": attempted, "failed": failed,
                "metrics": metrics}

    for sample in done:
        recorder.add("service.broker", sample.done - sample.broker_ms / 1e3,
                     sample.done, sample.span)
    metrics = common.engine_layer_metrics(recorder, results.values())
    metrics.update(_layer_probes(traces, requested, results, rundir,
                                 recorder))
    # The host's execution samples run in completion order: skip the
    # last set-up's warm-ups.
    spans = report.get("span_samples", {})
    metrics.update({
        "service.listen_ms": (median(l for _s, l, _f in setups), "ms"),
        "service.first_reply_ms": (median(f for _s, _l, f in setups), "ms"),
        "service.broker_ms_p50": (
            median(recorder.durations_ms("service.broker")), "ms"),
        "service.protocol_ms_p50": (
            median(recorder.self_durations_ms("service.request")), "ms"),
        "service.reply_bytes": (
            median(sample.nbytes for sample in done), "bytes"),
        "service.queue_wait_ms_p50": (
            median(spans.get("svc.queue_wait", [])[len(warm):]), "ms"),
        "service.execute_ms_p50": (
            median(spans.get("svc.execute", [])[len(warm):]), "ms"),
        "loadgen.gap_ms_p99": (
            percentile([sample.gap * 1e3 for sample in samples], 99), "ms"),
        "host.probe_alu_ms": (median(a for a, _g in probe.times_ms), "ms"),
        "host.probe_gather_ms": (
            median(g for _a, g in probe.times_ms), "ms"),
    })
    metrics["service.overhead_ms_p50"] = (median(
        sample.broker_ms - engine_ms[sample.cell] for sample in done), "ms")
    for key in ("requests", "executions", "memo_hits", "coalesced", "shed",
                "degraded", "failures"):
        metrics[f"service.{key}"] = (counts[key], "count")
    metrics["service.executions_per_request"] = (
        counts["executions"] / max(1, counts["requests"]), "ratio")
    # The timed phase of a traced run does exactly the untraced run's
    # work: spans are recorded on the client after each reply is timed,
    # and the traced extras (reference replays, layer probes) run after
    # it.  So tracing adds nothing to the measured latencies.
    metrics["trace_overhead_frac"] = (0.0, "frac")
    metrics["failed_frac"] = (failed / attempted, "frac")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "recorder": recorder}
