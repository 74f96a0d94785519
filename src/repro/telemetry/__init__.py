"""Structured telemetry: spans, counters, JSONL event files, rollups.

Write side (:mod:`~repro.telemetry.recorder`): a :class:`Telemetry`
recorder with ``span``/``count``/``event`` primitives, one append-only
JSONL file per process, and a no-op :data:`NULL_TELEMETRY` default so
uninstrumented runs pay a single attribute lookup.  Read side
(:mod:`~repro.telemetry.aggregate`): merge per-process files into
per-phase/per-rank/per-worker rollups, MFLUP/s and ETA.

This package is importable from anywhere in the tree — its modules
import nothing from ``repro`` at module level (repro imports happen
lazily inside the read-side functions), so even :mod:`repro.core` can
depend on it without cycles.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "aggregate": [
            "FleetRollup",
            "RunAggregate",
            "WorkerStats",
            "filter_events",
            "find_telemetry_dir",
            "format_event",
            "load_run",
            "read_events_file",
            "tail_events",
        ],
        "recorder": [
            "EVENT_VERSION",
            "NULL_TELEMETRY",
            "TELEMETRY_DIR_ENV",
            "TELEMETRY_DIRNAME",
            "JsonlSink",
            "MemorySink",
            "NullTelemetry",
            "Telemetry",
            "get_telemetry",
            "process_recorder",
            "set_telemetry",
        ],
    },
)

__all__ = [
    "EVENT_VERSION",
    "FleetRollup",
    "JsonlSink",
    "MemorySink",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "RunAggregate",
    "TELEMETRY_DIRNAME",
    "TELEMETRY_DIR_ENV",
    "Telemetry",
    "WorkerStats",
    "filter_events",
    "find_telemetry_dir",
    "format_event",
    "get_telemetry",
    "load_run",
    "process_recorder",
    "read_events_file",
    "set_telemetry",
    "tail_events",
]
