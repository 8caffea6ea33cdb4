"""Bench-owned daemon host: seed synthetic traces, serve them, report.

Started by ``serve.py`` as ``python3 perfbench/daemon_host.py ...`` with
``src`` on ``PYTHONPATH``.  It seeds the service traces with
``runner.seed_trace`` and runs ``ServiceDaemon(Broker(jobs=2))`` on a
unix socket until a ``shutdown`` op, then writes a JSON report: the peak
resident memory of the daemon plus its pool workers (sampled when the
shutdown op arrives, before the pool is torn down) and the broker's
per-execution queue-wait and execute times.

The body is guarded by ``__name__ == "__main__"``: spawn workers
re-import the main module, and an unguarded body would start a second
daemon inside every worker.
"""

from __future__ import annotations

import argparse
import json
import resource

#: Worker processes of the served pool.
JOBS = 2


def service_traces(seed: int, triples: int) -> dict:
    """Seeded synthetic traces: *triples* x (coalesced, mixed, scattered).

    Small on purpose: a fresh-cell request's engine time stays a few
    milliseconds, so the service path around it is a large share of the
    request.
    """
    from repro.trace import coalesced_trace, mixed_locality_trace, scattered_trace

    traces = {}
    for index in range(triples):
        base = 1000 * seed + 3 * index
        for trace in (
            coalesced_trace(n_batches=160, n_slots=256, num_params=4,
                            seed=base, name=f"svc-c{index}"),
            mixed_locality_trace(n_batches=120, n_slots=512, num_params=3,
                                 seed=base + 1, name=f"svc-m{index}"),
            scattered_trace(n_batches=80, n_slots=1024, num_params=1,
                            seed=base + 2, name=f"svc-s{index}"),
        ):
            traces[trace.name] = trace
    return traces


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main() -> None:
    import asyncio
    import multiprocessing

    from repro.experiments import runner
    from repro.service import Broker, ServiceDaemon

    parser = argparse.ArgumentParser()
    parser.add_argument("--socket", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--triples", type=int, required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()

    for name, trace in service_traces(args.seed, args.triples).items():
        runner.seed_trace(name, trace)
    peak = {}

    class HostDaemon(ServiceDaemon):
        def request_shutdown(self) -> None:
            if not peak:
                workers = [child.pid for child in
                           multiprocessing.active_children()]
                own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                peak["kb"] = own + sum(_vm_hwm_kb(pid) for pid in workers)
                peak["workers"] = len(workers)
            super().request_shutdown()

    broker = Broker(jobs=JOBS)
    asyncio.run(HostDaemon(broker, args.socket).run())
    with open(args.report, "w") as handle:
        json.dump({
            "peak_rss_mb": peak.get("kb", 0) / 1024.0,
            "workers": peak.get("workers", 0),
            "span_samples": broker.span_samples,
        }, handle)


if __name__ == "__main__":
    main()
