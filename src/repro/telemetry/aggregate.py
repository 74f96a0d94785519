"""Merge and roll up per-process telemetry event files.

A run's ``telemetry/`` directory holds one append-only JSONL file per
process (see :mod:`repro.telemetry.recorder`).  This module is the read
side: :func:`load_run` merges every file into one :class:`RunAggregate`
offering

* summed monotonic counters (``comm.bytes`` reconciles exactly against
  :meth:`~repro.parallel.DistributedSimulation.total_comm_bytes`),
* per-phase / per-rank seconds and a
  :class:`~repro.parallel.PhaseProfile` built from the same span events
  the live :class:`~repro.parallel.PhaseProfiler` reads — the two views
  are equal by construction,
* per-worker variant rollups (count, seconds, MFLUP/s via the paper's
  Eq. 4, :func:`repro.perf.metrics.mflups`),
* completion-rate ETA for the ``sweep-status`` live view,
* event filtering/formatting for the ``repro events`` tail.

Corrupt lines (a process killed mid-write) are skipped and *counted* —
an aggregate never silently pretends a truncated file was whole.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

from .recorder import TELEMETRY_DIRNAME

__all__ = [
    "FleetRollup",
    "RunAggregate",
    "WorkerStats",
    "filter_events",
    "find_telemetry_dir",
    "format_event",
    "load_run",
    "read_events_file",
]


def read_events_file(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Parse one JSONL event file; returns ``(events, dropped_lines)``.

    Lines that fail to parse, or parse to something other than an event
    object, count as dropped — typically the torn final line of a
    killed process.
    """
    events: list[dict[str, Any]] = []
    dropped = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                dropped += 1
                continue
            if isinstance(event, dict) and "type" in event:
                events.append(event)
            else:
                dropped += 1
    return events, dropped


def find_telemetry_dir(root: str | Path) -> Path:
    """Resolve ``root`` to a telemetry directory.

    Accepts either the telemetry directory itself or its parent (e.g. a
    sweep ``--cache-dir``, whose events live under
    ``<cache-dir>/telemetry/``).
    """
    root = Path(root)
    nested = root / TELEMETRY_DIRNAME
    if nested.is_dir():
        return nested
    return root


def load_run(root: str | Path) -> "RunAggregate":
    """Merge every per-process event file under ``root``.

    ``root`` may be the telemetry directory or its parent.  Events are
    ordered by wall-clock timestamp (stable across files).
    """
    directory = find_telemetry_dir(root)
    events: list[dict[str, Any]] = []
    files: list[Path] = []
    dropped = 0
    if directory.is_dir():
        for path in sorted(directory.glob("*.jsonl")):
            file_events, file_dropped = read_events_file(path)
            events.extend(file_events)
            dropped += file_dropped
            files.append(path)
    events.sort(key=lambda e: float(e.get("ts", 0.0)))
    return RunAggregate(events=events, files=tuple(files), dropped=dropped)


def filter_events(
    events: Iterable[dict[str, Any]],
    name: str | None = None,
    etype: str | None = None,
    process: str | None = None,
) -> list[dict[str, Any]]:
    """Events matching every given filter (substring match on ``name``
    and ``process``, exact match on ``etype``)."""
    out = []
    for event in events:
        if name is not None and name not in str(event.get("name", "")):
            continue
        if etype is not None and event.get("type") != etype:
            continue
        if process is not None and process not in str(event.get("process", "")):
            continue
        out.append(event)
    return out


def format_event(event: dict[str, Any]) -> str:
    """One human-readable line per event (the ``repro events`` view)."""
    ts = float(event.get("ts", 0.0))
    etype = str(event.get("type", "?"))
    name = str(event.get("name", "?"))
    process = str(event.get("process", "?"))
    parts = [f"{ts:.3f}", f"[{process}]", f"{etype:<5}", name]
    if etype == "span":
        parts.append(f"{float(event.get('seconds', 0.0)):.6f}s")
    elif etype == "count":
        value = event.get("value", 0)
        parts.append(f"+{value:g}" if isinstance(value, float) else f"+{value}")
    attrs = event.get("attrs") or {}
    if attrs:
        rendered = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        parts.append(rendered)
    return " ".join(parts)


@dataclasses.dataclass(frozen=True)
class WorkerStats:
    """Per-process variant rollup (one sweep worker = one process)."""

    process: str
    variants: int
    seconds: float
    updates: float  # total cell updates: sum(steps_i * cells_i)

    @property
    def mflups(self) -> float:
        """Aggregate throughput over this worker's variants (Eq. 4)."""
        if self.seconds <= 0 or self.updates <= 0:
            return float("nan")
        from ..perf.metrics import mflups

        return mflups(1, int(self.updates), self.seconds)


@dataclasses.dataclass(frozen=True)
class FleetRollup:
    """Structured fleet-telemetry rollup behind the ``sweep-status`` view.

    Pure data: building one has no CLI or filesystem side effects, so
    the serving layer (``GET /v1/fleet``) and the CLI table render the
    exact same numbers.  ``cache_hit_rate`` / ``eta_seconds`` are
    ``None`` when unknowable (the JSON-safe spelling of ``nan``).
    """

    events: int
    files: int
    dropped: int
    cache_hit_rate: float | None
    workers: tuple[WorkerStats, ...]
    eta_seconds: float | None
    remaining: int | None
    #: ``variant.failed`` / ``variant.quarantined`` counter totals —
    #: the fleet's failure-ledger activity as seen through telemetry.
    failed: int = 0
    quarantined: int = 0

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe dict form (no NaN; worker MFLUP/s may be None)."""
        workers = {}
        for stats in self.workers:
            throughput = stats.mflups
            workers[stats.process] = {
                "variants": stats.variants,
                "seconds": stats.seconds,
                "mflups": None if math.isnan(throughput) else throughput,
            }
        return {
            "events": self.events,
            "files": self.files,
            "dropped": self.dropped,
            "cache_hit_rate": self.cache_hit_rate,
            "workers": workers,
            "eta_seconds": self.eta_seconds,
            "remaining": self.remaining,
            "failed": self.failed,
            "quarantined": self.quarantined,
        }

    def summary_lines(self) -> list[str]:
        """The enriched ``sweep-status`` block (rendering only)."""
        lines = [
            f"  telemetry: {self.events} event(s) across "
            f"{self.files} file(s)"
            + (f", {self.dropped} corrupt line(s) dropped" if self.dropped else "")
        ]
        if self.cache_hit_rate is not None:
            lines.append(f"  cache hit rate: {self.cache_hit_rate:.0%}")
        if self.failed:
            lines.append(
                f"  failures: {self.failed} failed attempt(s), "
                f"{self.quarantined} quarantined"
            )
        for stats in sorted(self.workers, key=lambda s: s.process):
            throughput = stats.mflups
            rendered = "" if math.isnan(throughput) else f", {throughput:.2f} MFLUP/s"
            lines.append(
                f"  worker {stats.process}: {stats.variants} variant(s) in "
                f"{stats.seconds:.2f}s{rendered}"
            )
        if self.remaining is not None and self.eta_seconds is not None:
            lines.append(
                f"  eta: ~{self.eta_seconds:.0f}s for "
                f"{self.remaining} remaining variant(s)"
                if self.remaining
                else "  eta: done"
            )
        return lines


@dataclasses.dataclass
class RunAggregate:
    """All of one run's events, merged across processes."""

    events: list[dict[str, Any]]
    files: tuple[Path, ...] = ()
    dropped: int = 0

    # -- generic access ----------------------------------------------------

    @property
    def counters(self) -> dict[str, float]:
        """Monotonic counters summed over every process."""
        totals: dict[str, float] = {}
        for event in self.events:
            if event.get("type") == "count":
                name = str(event.get("name"))
                totals[name] = totals.get(name, 0) + event.get("value", 0)
        return totals

    def spans(self, name: str | None = None) -> list[dict[str, Any]]:
        """Span events, optionally filtered by exact name."""
        return [
            e
            for e in self.events
            if e.get("type") == "span"
            and (name is None or e.get("name") == name)
        ]

    # -- phase attribution (Fig. 9) ---------------------------------------

    def num_ranks(self) -> int:
        """Highest rank/ranks attribute seen on a phase span, plus one."""
        ranks = 0
        for event in self.spans():
            attrs = event.get("attrs") or {}
            if "ranks" in attrs:
                ranks = max(ranks, int(attrs["ranks"]))
            elif "rank" in attrs:
                ranks = max(ranks, int(attrs["rank"]) + 1)
        return ranks

    def phase_profile(self, num_ranks: int | None = None):
        """A :class:`~repro.parallel.PhaseProfile` built from the
        ``phase.*`` span events — numerically identical to what a live
        :class:`~repro.parallel.PhaseProfiler` over the same run reports
        (both read the same events)."""
        from ..parallel.instrumentation import PhaseProfile

        if num_ranks is None:
            num_ranks = max(1, self.num_ranks())
        return PhaseProfile.from_events(self.events, num_ranks)

    def phase_seconds(self) -> dict[str, float]:
        """Total seconds per phase, summed over ranks and processes."""
        totals: dict[str, float] = {}
        for event in self.spans():
            name = str(event.get("name", ""))
            if not name.startswith("phase."):
                continue
            phase = name[len("phase."):]
            totals[phase] = totals.get(phase, 0.0) + float(
                event.get("seconds", 0.0)
            )
        return totals

    # -- comm reconciliation ----------------------------------------------

    @property
    def comm_bytes(self) -> int:
        """Summed halo-exchange payload bytes (equals the fabric
        ledger's ``total_bytes`` exactly — both count ``payload.nbytes``
        at the same call site)."""
        return int(self.counters.get("comm.bytes", 0))

    # -- sweep/worker rollups ---------------------------------------------

    def variant_spans(self) -> list[dict[str, Any]]:
        return self.spans("variant")

    def worker_stats(self) -> dict[str, WorkerStats]:
        """Per-process variant rollups, keyed by process label."""
        grouped: dict[str, list[dict[str, Any]]] = {}
        for span in self.variant_spans():
            grouped.setdefault(str(span.get("process", "?")), []).append(span)
        stats: dict[str, WorkerStats] = {}
        for process, spans in grouped.items():
            seconds = sum(float(s.get("seconds", 0.0)) for s in spans)
            updates = 0.0
            for span in spans:
                attrs = span.get("attrs") or {}
                updates += float(attrs.get("steps", 0)) * float(
                    attrs.get("cells", 0)
                )
            stats[process] = WorkerStats(
                process=process,
                variants=len(spans),
                seconds=seconds,
                updates=updates,
            )
        return stats

    def cache_hit_rate(self) -> float:
        """Fraction of observed variants satisfied from cache.

        Per-variant outcomes (``variant.cached`` vs ``variant.completed``),
        not raw storage probes; ``nan`` when no variant was observed."""
        counters = self.counters
        cached = counters.get("variant.cached", 0)
        completed = counters.get("variant.completed", 0)
        total = cached + completed
        if total <= 0:
            return float("nan")
        return cached / total

    def eta_seconds(self, remaining: int) -> float:
        """Projected seconds to finish ``remaining`` variants at the
        observed completion rate (``nan`` when the rate is unknowable:
        fewer than two completions, or a zero-length window)."""
        if remaining <= 0:
            return 0.0
        spans = self.variant_spans()
        if len(spans) < 2:
            return float("nan")
        times = sorted(float(s.get("ts", 0.0)) for s in spans)
        window = times[-1] - times[0]
        if window <= 0:
            return float("nan")
        # N spans mark N completions over the window between the first
        # and last — N-1 inter-completion intervals.
        rate = (len(spans) - 1) / window
        return remaining / rate

    # -- presentation ------------------------------------------------------

    def fleet_stats(self, remaining: int | None = None) -> FleetRollup | None:
        """Structured rollup of this run's fleet view (None when no
        events were recorded — nothing to report)."""
        if not self.events:
            return None
        hit_rate = self.cache_hit_rate()
        eta: float | None = None
        if remaining is not None:
            projected = self.eta_seconds(remaining)
            eta = None if math.isnan(projected) else projected
        counters = self.counters
        return FleetRollup(
            events=len(self.events),
            files=len(self.files),
            dropped=self.dropped,
            cache_hit_rate=None if math.isnan(hit_rate) else hit_rate,
            workers=tuple(
                stats for _, stats in sorted(self.worker_stats().items())
            ),
            eta_seconds=eta,
            remaining=remaining,
            failed=int(counters.get("variant.failed", 0)),
            quarantined=int(counters.get("variant.quarantined", 0)),
        )

    def summary_lines(self, remaining: int | None = None) -> list[str]:
        """The enriched ``sweep-status`` block (empty when no events)."""
        rollup = self.fleet_stats(remaining)
        return [] if rollup is None else rollup.summary_lines()


def tail_events(
    root: str | Path,
    name: str | None = None,
    etype: str | None = None,
    process: str | None = None,
    tail: int | None = None,
) -> tuple[list[str], "RunAggregate"]:
    """Formatted, filtered event lines for the ``repro events`` CLI."""
    aggregate = load_run(root)
    events: Sequence[dict[str, Any]] = filter_events(
        aggregate.events, name=name, etype=etype, process=process
    )
    if tail is not None and tail >= 0:
        events = events[-tail:] if tail else []
    return [format_event(event) for event in events], aggregate
