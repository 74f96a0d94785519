"""Sweep worker processes: claim variants, run them, commit results.

A worker is the unit of distribution: point any number of them — on
any hosts sharing the cache directory — at a published sweep
(:class:`~repro.scenarios.scheduler.WorkQueue`) and they divide the
variants between themselves through atomic lease files, with no
coordinator in the loop.  ``python -m repro sweep-worker --cache-dir
DIR`` runs exactly this; ``repro sweep --jobs N`` starts N of them
locally over its cache directory
(:class:`~repro.scenarios.executor.SweepExecutor`).

Each pass lists ``queue/`` and ``done/`` and reads only the items with
no ``done/`` marker, so a pass costs O(unfinished work), however long
the directory's history.  Over those, in claim order — largest Eq. 5
traffic first, ties and sets with an uncosted item in grid order
(:meth:`~repro.scenarios.scheduler.WorkQueue.claim_order`):

1. probe the cache: a usable entry (written by ``run_case``, an inline
   sweep, an older release, or a committer that died before its
   marker) is adopted — it gets a marker — and skipped;
2. try to acquire the variant's lease; if held by someone else, check
   staleness (expired TTL, or a dead same-host pid) and reclaim;
3. run the variant, commit the payload to the content-addressed cache,
   read it back, write its ``done/`` marker, release the lease.

A worker exits when every item is marked or quarantined, or — by
default — when it can make no progress because live peers hold all
remaining leases (``wait=True`` polls instead, which also lets a
waiting worker pick up the leases of peers that die).  Crash recovery
follows from the commit order: the cache entry is written *before* the
marker and the lease release, so a worker that dies mid-variant leaves
a lease that goes stale and a variant that simply re-runs elsewhere —
or, past its commit, an entry the next pass adopts.

A variant that *raises* is never fatal to the worker: the exception is
recorded in the shared failure ledger
(:class:`~repro.resilience.FailureLedger`, ``failures.json`` beside
``queue/``), the lease is released, and the variant is retried
with exponential backoff until ``max_attempts``, after which it is
**quarantined** — skipped by the whole fleet so the sweep terminates
with an explicit ``FAILED`` row instead of crash-looping.  Setting
``$REPRO_FAULT_PLAN`` arms deterministic fault injection
(:class:`~repro.resilience.FaultPlan`) at the claim/run/commit points
of this loop.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import threading
import time
from pathlib import Path
from typing import Iterator

from ..resilience import DEFAULT_MAX_ATTEMPTS, FailureLedger, FaultPlan
from ..telemetry.recorder import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    process_recorder,
)
from . import executor as _executor
from .cache import ResultCache
from .scheduler import DEFAULT_LEASE_TTL, LeaseBoard, WorkQueue

__all__ = ["WorkerReport", "lease_heartbeat", "run_worker"]


@contextlib.contextmanager
def lease_heartbeat(
    board: LeaseBoard,
    fingerprint: str,
    telemetry: "Telemetry | NullTelemetry" = NULL_TELEMETRY,
) -> Iterator[None]:
    """Renew one held lease periodically while the body runs.

    A variant that outlives the lease TTL would otherwise go stale
    mid-run and get duplicated by every waiting peer; the heartbeat
    (every TTL/4) keeps a *live* worker's lease live however slow the
    variant is, while a killed worker's heartbeat dies with it and the
    lease expires on schedule.  If the lease is lost anyway (stolen
    after a pause longer than the TTL), the heartbeat just stops — the
    commit is idempotent, so finishing the run stays correct.

    With an enabled ``telemetry`` recorder, every renewal also emits a
    ``worker.heartbeat`` event (worker, fingerprint) — the liveness
    signal ``repro events`` and ``sweep-status`` surface for a fleet.
    """
    stop = threading.Event()
    interval = max(board.ttl / 4.0, 0.05)

    def beat() -> None:
        while not stop.wait(interval):
            if not board.renew(fingerprint):
                return  # lease lost: stop heartbeating, keep computing
            if telemetry.enabled:
                telemetry.event(
                    "worker.heartbeat", worker=board.owner, fingerprint=fingerprint
                )

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


@dataclasses.dataclass
class WorkerReport:
    """What one worker did before exiting.

    ``cache_hits`` and ``mflups`` are sourced from the worker's
    telemetry counters (``variant.cached``, counted for each unmarked
    entry the worker adopted, and ``variant.updates`` /
    ``variant.seconds``); without an enabled recorder they stay at
    their defaults (0 and NaN).
    """

    worker_id: str
    completed: list[str] = dataclasses.field(default_factory=list)
    reclaimed: list[str] = dataclasses.field(default_factory=list)
    failed: list[str] = dataclasses.field(default_factory=list)
    quarantined: list[str] = dataclasses.field(default_factory=list)
    already_cached: int = 0
    cache_hits: int = 0
    mflups: float = float("nan")

    def to_payload(self) -> dict:
        """JSON-safe dict form (NaN throughput maps to ``None``)."""
        return {
            "worker": self.worker_id,
            "completed": list(self.completed),
            "reclaimed": list(self.reclaimed),
            "failed": list(self.failed),
            "quarantined": list(self.quarantined),
            "already_cached": self.already_cached,
            "cache_hits": self.cache_hits,
            "mflups": None if math.isnan(self.mflups) else self.mflups,
        }

    def summary(self) -> str:
        reclaim = (
            f", {len(self.reclaimed)} reclaimed from stale leases"
            if self.reclaimed
            else ""
        )
        extras = ""
        if self.failed:
            extras += f", {len(self.failed)} failed attempt(s)"
        if self.quarantined:
            extras += f", {len(self.quarantined)} quarantined"
        if self.cache_hits:
            extras += f", {self.cache_hits} cache hit(s)"
        if not math.isnan(self.mflups):
            extras += f", {self.mflups:.2f} MFLUP/s"
        return (
            f"worker {self.worker_id}: ran {len(self.completed)} variant(s)"
            f"{reclaim}, {self.already_cached} already cached{extras}"
        )


def _finalize_report(
    report: WorkerReport,
    recorder: "Telemetry | NullTelemetry",
    base: dict,
) -> None:
    """Fold the recorder's counter deltas into the exiting report.

    ``base`` is a snapshot of the counters at worker start, so a
    recorder shared across successive ``run_worker`` calls in one
    process attributes each call only its own work.  MFLUP/s follows
    paper Eq. 4 over everything this worker ran: total lattice-point
    updates over total variant seconds.
    """
    if not recorder.enabled:
        return

    def delta(name: str) -> float:
        return recorder.counters.get(name, 0) - base.get(name, 0)

    report.cache_hits = int(delta("variant.cached"))
    updates = delta("variant.updates")
    seconds = delta("variant.seconds")
    if updates and seconds > 0:
        report.mflups = updates / (seconds * 1e6)
    recorder.flush()


def run_worker(
    cache_dir: str | Path,
    *,
    worker_id: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = 0.5,
    max_variants: int | None = None,
    wait: bool = False,
    follow: bool = False,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    retry_backoff: float = 0.5,
    idle_timeout: float | None = None,
    telemetry_dir: str | Path | None = None,
) -> WorkerReport:
    """Claim and run variants of the sweep published under ``cache_dir``.

    Parameters
    ----------
    worker_id:
        Label recorded in leases and the ``done/`` markers of the
        variants it commits (default: a unique ``host:pid:nonce``
        token).
    lease_ttl:
        Seconds before an unreleased lease counts as stale.  A live
        worker heartbeats its lease every TTL/4 while a variant runs
        (:func:`lease_heartbeat`), so the TTL bounds how long a *dead*
        worker's variant stays blocked, not how slow a variant may be.
    poll:
        Initial sleep between passes when waiting on peers or
        (``follow``) on new work.  Idle passes back the sleep off
        exponentially (capped at ``max(poll, 8.0)`` seconds); any
        progress resets it to ``poll``.
    max_variants:
        Stop after running this many variants (``None`` = no limit).
    wait:
        Keep polling until the sweep completes instead of exiting when
        only peer-held work remains.
    follow:
        Never exit for lack of work: once the queue drains, keep
        polling for items added to it (the ``repro serve`` front end
        adds cold requests to the same directory).  Implies ``wait``.
        Either way every pass lists the queue afresh, so added work
        reaches even non-follow fleets mid-sweep.
    max_attempts:
        Failed attempts (fleet-wide, via the shared failure ledger)
        after which a variant is quarantined and skipped by everyone.
    retry_backoff:
        Base of the per-variant exponential retry delay: attempt ``n``
        is not retried until ``retry_backoff * 2**(n-1)`` seconds
        (capped at 60) after its latest failure.
    idle_timeout:
        Exit after this many consecutive seconds without completing,
        failing, or discovering work (``None`` = never).  Lets
        ``--follow`` workers drain away once a sweep is done.
    telemetry_dir:
        Directory for this worker's structured-event JSONL file.  Set,
        the worker records variant spans, cache counters and lease
        heartbeats there (process label = the worker id) and the
        returned report's ``cache_hits``/``mflups`` are filled in; the
        default leaves the ambient recorder in charge.
    """
    root = Path(cache_dir)
    cache = ResultCache(root)
    #: Markers seen at the pass's listing plus those this worker wrote.
    done = cache.done()
    queue = WorkQueue.load(root, skip=done)
    board = LeaseBoard(root, owner=worker_id, ttl=lease_ttl)
    ledger = FailureLedger(root, max_attempts=max_attempts)
    plan = FaultPlan.from_env()
    injector = plan.arm(root) if plan is not None else None
    report = WorkerReport(worker_id=board.owner)
    telemetry_path = str(telemetry_dir) if telemetry_dir is not None else None
    recorder = (
        process_recorder(telemetry_path, process=board.owner)
        if telemetry_path
        else get_telemetry()
    )
    cache.telemetry = recorder
    counters_base = dict(recorder.counters)

    def count_cached() -> int:
        return len(queue.queued & done) - len(report.completed)

    def adopt(fingerprint: str) -> None:
        """Mark a usable entry nobody marked: written by ``run_case``,
        an inline sweep or an older release, or by a committer that died
        before its marker (whose stale lease goes too).  A live peer's
        lease means it is mid-commit and will mark the entry itself.

        Only an adopted entry counts as this worker's cache hit: a
        marked one was counted by whoever marked it (``variant.completed``
        by the worker that ran it, ``variant.cached`` by the sweep or
        worker that adopted it), so counting it here too would count one
        variant once per worker that lists it."""
        holder = board.holder(fingerprint)
        if holder is not None and not board.stale(holder):
            return
        if cache.mark_done(fingerprint, board.owner):
            if recorder.enabled:
                recorder.count("variant.cached")
            if holder is not None:
                board.reclaim(fingerprint)

    poll_cap = max(poll, 8.0)
    idle_delay = poll
    idle_since = time.monotonic()
    rescan = False

    try:
        while True:
            if rescan:
                done = cache.done()
                queue = WorkQueue.load(root, skip=done)
            rescan = True
            ran_this_pass = 0
            failed_this_pass = 0
            blocked = 0
            retry_wait = 0
            next_retry = math.inf
            failures = ledger.load()
            for item in queue.claim_order():
                if max_variants is not None and len(report.completed) >= max_variants:
                    report.already_cached = count_cached()
                    return report
                if _executor.usable_entry(cache, item.fingerprint, item.analyze):
                    adopt(item.fingerprint)
                    done.add(item.fingerprint)
                    continue
                record = failures.get(item.fingerprint)
                if record is not None and record.quarantined:
                    continue  # poisoned: the whole fleet skips it
                if record is not None:
                    due = record.next_retry_at(retry_backoff)
                    if time.time() < due:
                        retry_wait += 1
                        next_retry = min(next_retry, due)
                        continue
                if not board.acquire(item.fingerprint):
                    if board.reclaim(item.fingerprint):
                        report.reclaimed.append(item.fingerprint)
                    if not board.acquire(item.fingerprint):
                        blocked += 1
                        continue
                try:
                    # Re-check under the lease: a peer may have committed
                    # (entry, then marker, then release) since our probe.
                    if cache.marker_path(item.fingerprint).exists():
                        done.add(item.fingerprint)
                        continue
                    attempt = (0 if record is None else record.attempt_count) + 1
                    try:
                        if injector is not None:
                            injector.fire(
                                "claim",
                                fingerprint=item.fingerprint,
                                index=item.index,
                                attempt=attempt,
                                worker=board.owner,
                                cache=cache,
                                board=board,
                            )
                        task = item.task(telemetry_path)
                        if injector is not None:
                            injector.fire(
                                "run",
                                fingerprint=item.fingerprint,
                                index=item.index,
                                attempt=attempt,
                                worker=board.owner,
                                cache=cache,
                                board=board,
                            )
                        with lease_heartbeat(board, item.fingerprint, recorder):
                            payload = _executor._execute_variant(task)
                        cache.put(item.fingerprint, payload)
                        if injector is not None:
                            injector.fire(
                                "commit",
                                fingerprint=item.fingerprint,
                                index=item.index,
                                attempt=attempt,
                                worker=board.owner,
                                cache=cache,
                                board=board,
                            )
                    except Exception as exc:
                        # A variant exception is never fatal to the
                        # worker: record the attempt, release the lease
                        # (finally below) and move on to other items.
                        record = ledger.record_failure(
                            item.fingerprint, exc, worker=board.owner
                        )
                        failures[item.fingerprint] = record
                        report.failed.append(item.fingerprint)
                        failed_this_pass += 1
                        if recorder.enabled:
                            recorder.count("variant.failed")
                            recorder.event(
                                "variant.failed",
                                worker=board.owner,
                                fingerprint=item.fingerprint,
                                attempt=record.attempt_count,
                                exception=type(exc).__name__,
                                message=str(exc)[:200],
                            )
                        if record.quarantined:
                            report.quarantined.append(item.fingerprint)
                            if recorder.enabled:
                                recorder.count("variant.quarantined")
                                recorder.event(
                                    "variant.quarantined",
                                    worker=board.owner,
                                    fingerprint=item.fingerprint,
                                    attempts=record.attempt_count,
                                    exception=type(exc).__name__,
                                )
                        continue
                    if record is not None:
                        ledger.clear(item.fingerprint)
                    ran_this_pass += 1
                    # Mark only what reads back: a torn write is
                    # quarantined here and re-run on the next pass.
                    if cache.get(item.fingerprint) is None:
                        cache.lookup(item.fingerprint)
                        continue
                    cache.mark_done(item.fingerprint, board.owner)
                    done.add(item.fingerprint)
                    if item.fingerprint not in report.completed:
                        # a corrupt entry's re-run completes it again
                        report.completed.append(item.fingerprint)
                finally:
                    board.release(item.fingerprint)

            report.already_cached = count_cached()
            if ran_this_pass or failed_this_pass:
                idle_delay = poll
                idle_since = time.monotonic()
                continue  # made progress: scan again immediately
            if WorkQueue.load(root, skip=queue.queued | done).items:
                idle_delay = poll
                idle_since = time.monotonic()
                continue  # new items appeared while we scanned
            if retry_wait == 0:
                if blocked == 0:
                    if not follow:
                        # every item is marked or quarantined
                        return report
                elif not (wait or follow):
                    return report  # live peers hold the rest; let them finish
            if idle_timeout is not None and (
                time.monotonic() - idle_since >= idle_timeout
            ):
                return report
            delay = idle_delay
            if retry_wait and math.isfinite(next_retry):
                delay = max(0.01, min(delay, next_retry - time.time()))
            time.sleep(delay)
            idle_delay = min(idle_delay * 2.0, poll_cap)
    finally:
        _finalize_report(report, recorder, counters_base)
