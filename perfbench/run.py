"""Run one workload of the repo benchmark and print its result object.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload with in-memory spans and prints every
per-layer metric instead (metrics of a layer the workload does not
exercise read 0).  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

A workload that raises logs a typed record (workload, exception type,
message) to stderr and counts as one failed operation.
``--workload all`` runs every workload in its own process, one after
the other, so a failing workload does not stop the others; its last
line carries every workload's metrics under ``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback

import common

WORKLOADS = ("sweep", "serve_fresh")
DEFAULT_SEED = 0
#: ``--workload all`` gives each child this long plus three times
#: ``--seconds`` (set-ups, timed phase, reference replays and probes).
CHILD_MARGIN_S = 150.0
#: Seconds a child gets after SIGTERM to stop its daemon hosts.
CHILD_GRACE_S = 30.0


def _declared_metrics(trace: bool) -> "list[dict]":
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_id = f"{name}-{seed}-{os.getpid()}-{time.time_ns()}"
    try:
        if name == "sweep":
            import sweep

            outcome = sweep.run(seed, seconds, trace, run_id)
        else:
            import serve

            outcome = serve.run(seed, seconds, trace, run_id)
    finally:
        shutil.rmtree(common.STATE / run_id, ignore_errors=True)
    recorder = outcome.pop("recorder", None)
    if recorder is not None and recorder.enabled:
        recorder.write(common.STATE / "spans" / f"{name}.jsonl")
    measured = outcome["metrics"]
    metrics = {}
    for metric in _declared_metrics(trace):
        value, unit = measured.pop(metric["name"], (None, metric["unit"]))
        if value is None:
            if not trace:
                raise KeyError(f"{name} did not measure {metric['name']}")
            value = 0  # the layer does no work on this workload
        if unit != metric["unit"]:
            raise ValueError(f"{metric['name']}: unit {unit!r} is not "
                             f"the declared {metric['unit']!r}")
        metrics[metric["name"]] = (value, unit)
    if measured:
        raise KeyError(f"{name} measured undeclared metrics {sorted(measured)}")
    return {"attempted": outcome["attempted"], "failed": outcome["failed"],
            "metrics": metrics}


def _run_all(args) -> int:
    """Every workload in a child process, one after the other.

    A workload that fails still yields a record (its child printed one,
    or it counts as one failed operation) and the others still run.
    """
    metrics = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        record = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate(
                timeout=CHILD_MARGIN_S + 3 * args.seconds)
            lines = out.strip().splitlines()
            if lines:
                record = json.loads(lines[-1])
        except (subprocess.TimeoutExpired, ValueError) as exc:
            _failure(name, exc)
        finally:
            _stop(child)
        common.log(f"{name}: {json.dumps(record)}")
        correct = correct and record["correct"]
        attempted += record["attempted"]
        failed += record["failed"]
        for metric, body in record["metrics"].items():
            metrics[f"{name}.{metric}"] = (body["value"], body["unit"])
    common.emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def _stop(child: subprocess.Popen) -> None:
    """Stop *child* if it still runs: SIGTERM first, so its handler stops
    and reaps the daemon hosts it started, SIGKILL after a grace period."""
    if child.poll() is None:
        child.terminate()
        try:
            child.wait(timeout=CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            child.kill()
    child.wait()


def _failure(workload: str, exc: BaseException) -> None:
    """Log a typed failed record for a workload that raised."""
    common.log(json.dumps({"workload": workload,
                           "error": type(exc).__name__,
                           "message": str(exc)}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        common.bootstrap()
    except common.SourceMissing as exc:
        common.log(f"perfbench: {exc}")
        return 2
    # A terminated run still stops and reaps the daemon hosts it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return _run_all(args)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except Exception as exc:
        # A workload that raises is one failed operation, not a crash.
        common.log(traceback.format_exc())
        _failure(args.workload, exc)
        common.emit(False, 1, 1, {})
        return 1
    correct = outcome["failed"] == 0
    common.emit(correct, outcome["attempted"], outcome["failed"],
                outcome["metrics"])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
