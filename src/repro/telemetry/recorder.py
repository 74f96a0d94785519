"""Structured telemetry recording: spans, counters, point events.

The paper's whole argument rests on *measured attribution* — HPM
counters assigning per-rank time to stream/collide/communication
(Fig. 9), MFLUP/s throughput (Eq. 4), comm-byte ledgers.  This module
is the repo's equivalent substrate: a :class:`Telemetry` recorder that
every layer (simulation step loops, halo exchange, result cache, sweep
workers, the serve front end) emits structured events through, and
which persists them as append-only JSONL — one file per process, so
concurrent writers never interleave — under a per-run ``telemetry/``
directory.

Three event kinds, one line each:

``span``
    A named, measured duration (``seconds``) with free-form ``attrs``
    (rank, step, fingerprint, ...).  Emitted via :meth:`Telemetry.span`
    (context manager) or :meth:`Telemetry.record_span` (pre-measured).
``count``
    A monotonic counter increment (``value``); the recorder also keeps
    in-process running totals in :attr:`Telemetry.counters`.
``event``
    A point-in-time fact (worker heartbeat, corrupt cache entry)
    carrying only ``attrs``.

The default recorder everywhere is :data:`NULL_TELEMETRY`, a no-op
whose ``enabled`` attribute is ``False`` — instrumented hot loops guard
on that one attribute lookup and pay nothing else when telemetry is
off (tracemalloc- and timing-asserted in the tests, preserving the
planned kernels' zero-allocation guarantees).

This module deliberately imports nothing from the rest of the package:
:mod:`repro.core.simulation` and :mod:`repro.parallel` import it at
module level, so it must sit below them in the import graph.  The read
side (merging, rollups, MFLUP/s) lives in
:mod:`repro.telemetry.aggregate`.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "EVENT_VERSION",
    "JsonlSink",
    "MemorySink",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "TELEMETRY_DIRNAME",
    "TELEMETRY_DIR_ENV",
    "Telemetry",
    "create_exclusive",
    "get_telemetry",
    "process_recorder",
    "set_telemetry",
]

#: Schema version stamped on every event line.
EVENT_VERSION = 1

#: Conventional subdirectory for a run's event files (e.g. under a
#: sweep cache dir: ``<cache-dir>/telemetry/*.jsonl``).
TELEMETRY_DIRNAME = "telemetry"

#: Environment variable enabling the ambient process recorder: when
#: set, :func:`get_telemetry` returns a recorder writing JSONL there
#: instead of the no-op default.
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"


def _coerce(value: Any) -> Any:
    """JSON fallback for numpy scalars and other oddballs in attrs."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)


def create_exclusive(path: str | Path):
    """Open ``path`` for writing, failing if it already exists.

    The same ``O_CREAT | O_EXCL`` idiom as the claim-file primitives in
    :mod:`repro.core.io` (which this module cannot import — it sits
    below :mod:`repro.core` in the import graph): of any number of
    concurrent creators exactly one wins, so two processes can never
    share — and interleave — one event file.  Line-buffered, so every
    event line is durable as soon as it is written.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
    return os.fdopen(fd, "w", buffering=1)


class MemorySink:
    """Event sink keeping every event as a dict in a list (test/reader
    friendly; what :class:`~repro.parallel.PhaseProfiler` reads)."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def write(self, event: dict[str, Any]) -> None:
        self.events.append(event)

    def flush(self) -> None:  # pragma: no cover - nothing buffered
        pass

    def close(self) -> None:
        pass


class JsonlSink:
    """Append-only JSONL event file, exclusively owned by this process."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = create_exclusive(self.path)

    @classmethod
    def create(
        cls, directory: str | Path, process: str | None = None
    ) -> "JsonlSink":
        """A fresh, uniquely named event file under ``directory``.

        The name embeds the process label (sanitised) plus a nonce, and
        creation is O_EXCL with retry, so concurrent workers — even
        with colliding labels — always land in distinct files.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        label = process or f"{socket.gethostname()}-{os.getpid()}"
        label = "".join(c if c.isalnum() or c in "._-" else "-" for c in label)
        for _ in range(8):
            path = directory / f"{label}-{uuid.uuid4().hex[:8]}.jsonl"
            try:
                return cls(path)
            except FileExistsError:  # pragma: no cover - nonce collision
                continue
        raise OSError(f"could not create a unique event file under {directory}")

    def write(self, event: dict[str, Any]) -> None:
        self._handle.write(json.dumps(event, default=_coerce) + "\n")

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class _Span:
    """Context manager measuring one span; attrs may be extended via
    :meth:`set` before exit (e.g. a step count known only afterwards)."""

    __slots__ = ("_telemetry", "name", "attrs", "seconds", "_start")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: dict) -> None:
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self.seconds: float | None = None
        self._start = 0.0

    def set(self, **attrs: Any) -> "_Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        self._start = self._telemetry.clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = self._telemetry.clock() - self._start
        self._telemetry.record_span(self.name, self.seconds, **self.attrs)


class _NullSpan:
    """Shared no-op span so the disabled path allocates nothing."""

    __slots__ = ()
    seconds = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled recorder: every operation is a no-op.

    ``enabled`` is ``False`` — instrumented code guards its measurement
    on that single attribute lookup, so a disabled run pays neither the
    clock reads nor any allocation.
    """

    enabled = False
    counters: dict[str, float] = {}

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, seconds: float, **attrs: Any) -> None:
        pass

    def count(self, name: str, value: float = 1, **attrs: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def events(self) -> list[dict[str, Any]]:
        return []

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: The process-wide disabled recorder (safe to share: it has no state).
NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """Structured event recorder writing to one or more sinks.

    Parameters
    ----------
    *sinks:
        Event sinks (:class:`MemorySink`, :class:`JsonlSink`, or
        anything with ``write(dict)``/``flush()``/``close()``).  At
        least one is required.
    run:
        Identity of the run these events belong to (sweep key, case
        fingerprint, ...); recorded in the leading ``meta`` event so
        files from different runs sharing a directory stay separable.
    process:
        Label of the emitting process (worker id, rank label); defaults
        to ``host:pid``.
    clock / now:
        Monotonic duration clock and wall-clock (injectable for tests).
    """

    enabled = True

    def __init__(
        self,
        *sinks: Any,
        run: str | None = None,
        process: str | None = None,
        clock: Callable[[], float] = time.perf_counter,
        now: Callable[[], float] = time.time,
    ) -> None:
        if not sinks:
            raise ValueError("Telemetry needs at least one sink")
        self.sinks = list(sinks)
        self.run = run
        self.process = process or f"{socket.gethostname()}:{os.getpid()}"
        self.clock = clock
        self.now = now
        self.counters: dict[str, float] = {}
        self.closed = False
        # One lock per recorder: the lease heartbeat thread emits events
        # concurrently with the worker's main loop.
        self._lock = threading.Lock()
        self.event(
            "meta",
            _type="meta",
            run=run,
            host=socket.gethostname(),
            pid=os.getpid(),
        )

    # -- emission ----------------------------------------------------------

    def _emit(self, record: dict[str, Any]) -> None:
        with self._lock:
            if self.closed:
                return
            for sink in self.sinks:
                sink.write(record)

    def _base(self, etype: str, name: str) -> dict[str, Any]:
        return {
            "v": EVENT_VERSION,
            "ts": self.now(),
            "type": etype,
            "name": name,
            "process": self.process,
        }

    def span(self, name: str, **attrs: Any) -> _Span:
        """Measure the ``with`` body and record it as a span."""
        return _Span(self, name, attrs)

    def record_span(self, name: str, seconds: float, **attrs: Any) -> None:
        """Record an already-measured duration (the hot-loop form: the
        caller reads the clock itself, no context-manager allocation)."""
        record = self._base("span", name)
        record["seconds"] = float(seconds)
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def count(self, name: str, value: float = 1, **attrs: Any) -> None:
        """Increment a monotonic counter (negative increments rejected)."""
        if value < 0:
            raise ValueError(f"counter {name!r} increment must be >= 0, got {value}")
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value
        record = self._base("count", name)
        record["value"] = value
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def event(self, name: str, _type: str = "event", **attrs: Any) -> None:
        """Record a point-in-time fact carrying only attributes."""
        record = self._base(_type, name)
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    # -- access ------------------------------------------------------------

    def events(self) -> list[dict[str, Any]]:
        """The in-memory event list, when a :class:`MemorySink` is
        attached (first one wins); empty otherwise."""
        for sink in self.sinks:
            if isinstance(sink, MemorySink):
                return sink.events
        return []

    @property
    def path(self) -> Path | None:
        """The JSONL file path, when a :class:`JsonlSink` is attached."""
        for sink in self.sinks:
            if isinstance(sink, JsonlSink):
                return sink.path
        return None

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
            for sink in self.sinks:
                sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- constructors ------------------------------------------------------

    @classmethod
    def to_dir(
        cls,
        directory: str | Path,
        run: str | None = None,
        process: str | None = None,
    ) -> "Telemetry":
        """A recorder writing a fresh JSONL file under ``directory``."""
        return cls(JsonlSink.create(directory, process), run=run, process=process)

    @classmethod
    def in_memory(
        cls, run: str | None = None, process: str | None = None
    ) -> "Telemetry":
        """A recorder collecting events in memory only."""
        return cls(MemorySink(), run=run, process=process)


# -- process-level recorders -------------------------------------------------
#
# Sweep machinery shares one recorder (one event file) per process per
# telemetry directory: the worker loop, its cache probes, and
# _execute_variant all resolve the same instance through this registry.
# Keyed by pid as well, so pool children forked from an instrumented
# parent open their *own* file instead of inheriting the parent's file
# handle (two processes appending through one fd would interleave).

_PROCESS_RECORDERS: dict[tuple[int, str], Telemetry] = {}


def process_recorder(
    directory: str | Path,
    run: str | None = None,
    process: str | None = None,
) -> Telemetry:
    """This process's shared recorder for ``directory`` (created on
    first use; re-created after :meth:`Telemetry.close`)."""
    key = (os.getpid(), str(Path(directory)))
    recorder = _PROCESS_RECORDERS.get(key)
    if recorder is None or recorder.closed:
        recorder = Telemetry.to_dir(directory, run=run, process=process)
        _PROCESS_RECORDERS[key] = recorder
    return recorder


def iter_process_recorders() -> Iterator[Telemetry]:
    """Live recorders owned by *this* process (flush/close hooks)."""
    pid = os.getpid()
    for (owner, _), recorder in list(_PROCESS_RECORDERS.items()):
        if owner == pid and not recorder.closed:
            yield recorder


# -- the ambient recorder ----------------------------------------------------

_AMBIENT: Telemetry | None = None
_AMBIENT_PID: int | None = None


def get_telemetry() -> "Telemetry | NullTelemetry":
    """The ambient recorder drivers default to.

    :data:`NULL_TELEMETRY` unless one was installed via
    :func:`set_telemetry` or ``$REPRO_TELEMETRY_DIR`` names a directory
    to write under (one file per process, created lazily).  Never
    inherited across ``fork`` — a child gets its own file.
    """
    global _AMBIENT, _AMBIENT_PID
    if _AMBIENT is not None and _AMBIENT_PID == os.getpid() and not _AMBIENT.closed:
        return _AMBIENT
    directory = os.environ.get(TELEMETRY_DIR_ENV)
    if not directory:
        return NULL_TELEMETRY
    _AMBIENT = Telemetry.to_dir(directory)
    _AMBIENT_PID = os.getpid()
    return _AMBIENT


def set_telemetry(
    recorder: "Telemetry | NullTelemetry | None",
) -> "Telemetry | NullTelemetry | None":
    """Install (or with ``None``, clear) the ambient recorder; returns
    the previously installed one so callers can restore it."""
    global _AMBIENT, _AMBIENT_PID
    previous = _AMBIENT
    _AMBIENT = None if isinstance(recorder, NullTelemetry) else recorder
    _AMBIENT_PID = os.getpid() if _AMBIENT is not None else None
    return previous
