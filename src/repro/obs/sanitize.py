"""Runtime sanitizer: record what processes *actually* do to files and
to the event-loop thread, so arclint's static models can be
cross-checked against ground truth.

Two static models need a runtime twin, the same way ARC007's heap-tie
assert backs its static rule:

* ARC009-012 (:mod:`repro.lint.rules.concurrency`) model which writes
  reach shared resources and by which **protocol**;
* ARC013 (:mod:`repro.lint.rules.asyncsafety`) models which blocking
  calls are reachable in **coroutine context**.

With ``REPRO_SANITIZE=1`` and a journal path in ``REPRO_SANITIZE_LOG``,
:func:`maybe_install` interposes on the primitives every repro file
write and loop stall goes through: ``builtins.open`` / ``io.open``
(pathlib I/O and numpy's savez spooling land here), ``os.open``,
``os.replace`` / ``os.rename`` and ``time.sleep``.  Each shimmed call
appends one JSONL record to the journal -- ``op``, ``pid``, ``path``
and ``mode`` / ``flags`` / ``src``:

* off the loop thread (every spawn worker, executor threads, the batch
  runner) the record is written *before* the call, so a killed or hung
  worker still leaves it; ``time.sleep`` is not recorded there;
* on a running event loop's thread the same record is written after
  the call and also carries ``frame`` (the innermost repro frame, as
  ``module.Qual.name`` -- the lint layer's vocabulary), ``duration_ms``
  and a ``stalled`` verdict against :data:`SLOW_MS`.  A wrapper over
  ``asyncio.Handle._run`` adds one frame-less ``callback`` record per
  callback that overruns the threshold.

Records are written with a single ``O_APPEND`` write through primitives
saved at import, so the shim follows the discipline it audits, never
records itself, and never takes down the observed run.  Both env vars
are in the declared spawn-carry set, and the pool initializer and the
daemon call :func:`maybe_install`, so parent, workers and daemon land
in one journal tagged by pid.  The journal is read back with
:func:`repro.obslog.read_events` and folded by
:func:`observed_protocols` into the ``(resource class, protocol)`` pairs
of :class:`~repro.lint.dataflow.resources.ResourceModel`, and by
:func:`observed_frames` / :func:`stalled_frames` into the frames of
:meth:`~repro.lint.dataflow.asyncctx.AsyncContexts.blocking_model`.

The protocol and resource-class vocabulary lives here, and the lint
layer imports it: both sides of the cross-check speak one set of
strings by construction.  asyncio is imported only by :func:`install`,
so importing this module costs a spawn worker nothing when unarmed.
"""

from __future__ import annotations

import builtins
import io
import json
import os
import sys
import time
from pathlib import Path

__all__ = [
    "PROTOCOL_APPEND",
    "PROTOCOL_ATOMIC_RENAME",
    "PROTOCOL_BUFFERED_APPEND",
    "PROTOCOL_RAW_WRITE",
    "PROTOCOL_TEMP",
    "RESOURCE_CACHE_QUARANTINE",
    "RESOURCE_CACHE_RESULTS",
    "RESOURCE_MANIFEST",
    "RESOURCE_OBSLOG",
    "SANITIZE_ENV",
    "SANITIZE_LOG_ENV",
    "SLOW_MS",
    "SOUND_PROTOCOLS",
    "arm_loop",
    "classify_path",
    "enabled",
    "install",
    "installed",
    "maybe_install",
    "observed_frames",
    "observed_protocols",
    "stalled_frames",
    "uninstall",
]

SANITIZE_ENV = "REPRO_SANITIZE"
SANITIZE_LOG_ENV = "REPRO_SANITIZE_LOG"

#: Stall threshold.  100 ms is far above any audited append
#: (microseconds) and far below any injected fault (hundreds of ms), so
#: the ``stalled`` verdict is unambiguous on both sides.
SLOW_MS = 100.0

# Write protocols (see repro.lint.dataflow.resources for their meaning).
PROTOCOL_ATOMIC_RENAME = "atomic-rename"
PROTOCOL_APPEND = "o-append"
PROTOCOL_TEMP = "temp-file"
PROTOCOL_RAW_WRITE = "raw-write"
PROTOCOL_BUFFERED_APPEND = "buffered-append"

#: Write protocols safe under concurrent multi-process writers.
SOUND_PROTOCOLS = frozenset({PROTOCOL_ATOMIC_RENAME, PROTOCOL_APPEND})

# Shared resource classes: committed cache entries, quarantined corrupt
# entries, the resumable run manifest and the REPRO_OBSLOG sink.
RESOURCE_CACHE_RESULTS = "cache-results"
RESOURCE_CACHE_QUARANTINE = "cache-quarantine"
RESOURCE_MANIFEST = "manifest"
RESOURCE_OBSLOG = "obslog"

#: Saved at import, before any install: the journal writer must bypass
#: the shims or recording an open would record itself forever.
_pristine_os_open = os.open
_pristine_os_write = os.write
_pristine_os_close = os.close

#: Directory of the ``repro`` package, for frame attribution.
_REPRO_ROOT = str(Path(__file__).resolve().parents[1])
_THIS_FILE = str(Path(__file__).resolve())

#: (owner, attribute, original) for every binding install replaced.
_saved: list = []
#: ``asyncio._get_running_loop`` once installed (``None`` before).
_running_loop = None


def enabled() -> bool:
    """Whether the shim should interpose in this process."""
    sanitize = os.environ.get(SANITIZE_ENV, "").strip()
    if sanitize in ("", "0"):
        return False
    return bool(os.environ.get(SANITIZE_LOG_ENV, "").strip())


def installed() -> bool:
    return bool(_saved)


def _write(record: dict) -> None:
    """Append one journal line via the pristine primitives only."""
    journal = os.environ.get(SANITIZE_LOG_ENV, "").strip()
    if not journal:
        return
    line = json.dumps(record, sort_keys=True) + "\n"
    try:
        fd = _pristine_os_open(
            journal, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            _pristine_os_write(fd, line.encode("utf-8"))
        finally:
            _pristine_os_close(fd)
    except OSError:
        return  # observation must never take down the observed run


def _blocking_frame() -> "str | None":
    """Innermost repro frame on the stack, as ``module.Qual.name``.

    This is the frame a stall is *attributed* to: the nearest repro
    code below the primitive, which for ``np.savez_compressed`` is the
    spool writer, not numpy internals.  ``None`` when no repro frame is
    on the stack at all.
    """
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename.startswith(_REPRO_ROOT) and filename != _THIS_FILE:
            module = frame.f_globals.get("__name__", "")
            qualname = getattr(
                frame.f_code, "co_qualname", frame.f_code.co_name
            )
            return f"{module}.{qualname}" if module else qualname
        frame = frame.f_back
    return None


def _timed(record: dict, start: float) -> dict:
    duration_ms = (time.perf_counter() - start) * 1000.0
    record.update(duration_ms=round(duration_ms, 3),
                  stalled=duration_ms >= SLOW_MS)
    return record


def _shim(op: str, real, fields, loop_only: bool):
    """Wrap primitive *real*; ``fields(*args, **kwargs)`` gives the
    record's detail, or ``None`` for a call on a file descriptor."""
    def traced(*args, **kwargs):
        detail = fields(*args, **kwargs)
        if _running_loop() is None:
            if detail is not None and not loop_only:
                _write({"op": op, "pid": os.getpid(), **detail})
            return real(*args, **kwargs)
        record = {"op": op, "pid": os.getpid(), **(detail or {})}
        frame = _blocking_frame()
        if frame is not None:
            record["frame"] = frame
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            _write(_timed(record, start))
    return traced


def _open_fields(file=None, mode="r", *_, **__):
    if isinstance(file, (str, os.PathLike)):
        return {"path": str(file), "mode": mode}
    return None


def _os_open_fields(path=None, flags=0, *_, **__):
    if isinstance(path, (str, os.PathLike)):
        return {"path": str(path), "flags": int(flags)}
    return None


def _move_fields(src=None, dst=None, *_, **__):
    return {"path": str(dst), "src": str(src)}


def _sleep_fields(seconds=0.0, *_, **__):
    return {"seconds": seconds}


def _wrapped_handle_run(real_run):
    """Per-callback stall tracker for ``asyncio.Handle._run``: one
    ``callback`` record for any callback that held the loop past the
    threshold, whether or not a shimmed primitive was the cause."""
    def run(handle):
        start = time.perf_counter()
        try:
            return real_run(handle)
        finally:
            if (time.perf_counter() - start) * 1000.0 >= SLOW_MS:
                callback = getattr(handle, "_callback", None)
                name = getattr(callback, "__qualname__", None) \
                    or repr(callback)
                _write(_timed({"op": "callback", "pid": os.getpid(),
                               "callback": name}, start))
    return run


def install() -> None:
    """Interpose on the primitives (idempotent).  Saves what is bound
    now, so :func:`uninstall` restores exactly that."""
    global _running_loop
    if _saved:
        return
    import asyncio

    _running_loop = asyncio._get_running_loop
    for owner, name, op, fields, loop_only in (
        (builtins, "open", "open", _open_fields, False),
        (io, "open", "open", _open_fields, False),
        (os, "open", "os.open", _os_open_fields, False),
        (os, "replace", "replace", _move_fields, False),
        (os, "rename", "rename", _move_fields, False),
        (time, "sleep", "sleep", _sleep_fields, True),
    ):
        real = getattr(owner, name)
        _saved.append((owner, name, real))
        setattr(owner, name, _shim(op, real, fields, loop_only))
    real_run = asyncio.Handle._run
    _saved.append((asyncio.Handle, "_run", real_run))
    asyncio.Handle._run = _wrapped_handle_run(real_run)


def maybe_install() -> bool:
    """:func:`install` when :func:`enabled`; True when the shim is
    active.  Called by the parent (test harness), the pool initializer
    (``spawn`` workers re-import this module with the pristine
    primitives, so each process installs its own shim) and the daemon.
    """
    if enabled():
        install()
    return installed()


def uninstall() -> None:
    """Restore what was bound before :func:`install` (test cleanup)."""
    while _saved:
        owner, name, real = _saved.pop()
        setattr(owner, name, real)


def arm_loop(loop) -> float:
    """Align asyncio's own debug-mode slow-callback reporting on *loop*
    with :data:`SLOW_MS`, so its log and the journal agree on what
    counts as a stall.  Returns the threshold in seconds."""
    threshold_s = SLOW_MS / 1000.0
    loop.set_debug(True)
    loop.slow_callback_duration = threshold_s
    return threshold_s


# --------------------------------------------------------------------- #
# Folding a journal into the static models' vocabulary
# --------------------------------------------------------------------- #


def classify_path(
    path: str, cache_root, obslog_path: "str | None"
) -> "str | None":
    """Resource class of *path*, mirroring the static pattern table.

    Writer temp files (``.<prefix>-*.tmp``) classify as ``None``: they
    are the private half of an atomic-rename write, not shared state.
    """
    resolved = Path(path)
    if resolved.name.startswith(".") and resolved.name.endswith(".tmp"):
        return None
    if obslog_path and str(resolved) == str(Path(obslog_path)):
        return RESOURCE_OBSLOG
    if cache_root is None:
        return None
    try:
        parts = resolved.relative_to(Path(cache_root)).parts
    except ValueError:
        return None
    return {
        "results": RESOURCE_CACHE_RESULTS,
        "quarantine": RESOURCE_CACHE_QUARANTINE,
        "manifests": RESOURCE_MANIFEST,
    }.get(parts[0] if parts else "")


def _protocol_of(event: dict) -> "str | None":
    """Write protocol one recorded event used (``None`` for reads)."""
    op = event.get("op")
    if op in ("replace", "rename"):
        return PROTOCOL_ATOMIC_RENAME
    if op == "os.open":
        flags = int(event.get("flags", 0))
        if flags & os.O_APPEND:
            return PROTOCOL_APPEND
        if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC):
            return PROTOCOL_RAW_WRITE
        return None
    if op == "open":
        mode = str(event.get("mode", "r"))
        if any(flag in mode for flag in ("w", "x", "+")):
            return PROTOCOL_RAW_WRITE
        if "a" in mode:
            return PROTOCOL_BUFFERED_APPEND
    return None


def observed_protocols(
    events: list[dict], cache_root, obslog_path: "str | None" = None
) -> set[tuple[str, str]]:
    """(resource class, write protocol) pairs a journal shows.

    ``mkstemp``'s ``os.open`` of a dot-tmp file classifies to no
    resource and drops out, same as the static model's ``temp-file``
    exclusion; the commit is seen at its ``os.replace``.
    """
    observed: set[tuple[str, str]] = set()
    for event in events:
        protocol = _protocol_of(event)
        if protocol is None:
            continue
        resource = classify_path(
            str(event.get("path", "")), cache_root, obslog_path
        )
        if resource is not None:
            observed.add((resource, protocol))
    return observed


def observed_frames(events: list[dict]) -> set[str]:
    """Repro frames observed performing a blocking primitive on the
    loop thread.  Off-loop records and ``callback`` records carry no
    frame and fold out here."""
    return {event["frame"] for event in events if event.get("frame")}


def stalled_frames(events: list[dict]) -> set[str]:
    """The subset of observed frames that overran the threshold."""
    return {
        event["frame"] for event in events
        if event.get("frame") and event.get("stalled")
    }
