"""Distributed sweep coordination over a shared cache directory.

The paper's strong-scaling study ran the lattice Boltzmann model across
hundreds of thousands of ranks; this module gives the sweep engine the
same shape at the campaign level: N independent worker processes —
launchable on different hosts — divide one sweep's variants between
them with nothing but a shared directory for coordination.  The sweep
driver (:class:`~repro.scenarios.executor.SweepExecutor`) publishes
through it, both for ``repro sweep --publish`` and for the local
workers ``--jobs N`` starts.

The coordination substrate is the content-addressed cache layout
(:mod:`repro.scenarios.cache`: entries, ``done/`` markers and
``sweeps/`` records), extended with two artifacts:

``queue/<fingerprint>.json``
    One published work item, created once: case name, overrides, Eq. 5
    cost, grid index and analyze mode.  Host-agnostic — a worker needs
    only this file and the case registry to rebuild the variant.
    Publishers only ever add items, so a sweep, ``--jobs N`` and a live
    ``repro serve`` can share one directory.
``leases/<fingerprint>.lease``
    Atomic claim files (:class:`~repro.core.io.ClaimRecord`): a worker
    that creates one owns that variant until it commits or the lease
    expires.  Stale leases — expired TTL, or a same-host owner whose
    pid is gone — are reclaimed by any other worker, so a worker killed
    mid-variant costs one re-run, never a hung sweep.

Correctness never depends on the leases: cache commits are
content-addressed and idempotent (two workers racing on one variant
write byte-identical entries), so leases are purely a
don't-duplicate-work optimisation.  That is what keeps distributed
sweeps deterministic: ``--jobs 1``, ``--jobs N``, any fleet of
``sweep-worker`` processes and a warm-cache replay all assemble the
same payloads in grid order, so their tables are bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import socket
import time
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from ..core.io import (
    ClaimRecord,
    break_claim,
    create_once,
    read_claim,
    refresh_claim,
    release_claim,
    write_claim,
)
from ..errors import ScenarioError
from ..lattice import get_lattice
from ..machine.roofline import bytes_per_cell
from ..resilience import FailureLedger, FailureRecord
from ..telemetry.recorder import TELEMETRY_DIRNAME
from .cache import QUEUE_DIRNAME, ResultCache, SweepManifest, warn_legacy_state
from .executor import DEFAULT_LEASE_TTL, SweepPlan, _VariantTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.aggregate import FleetRollup

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LeaseBoard",
    "SweepStatus",
    "WorkItem",
    "WorkQueue",
    "lease_holder",
    "predict_spec_costs",
    "sweep_status",
]

_ITEM_VERSION = 1
LEASE_DIRNAME = "leases"

_warned_items: set[Path] = set()


def _retuple(value: Any) -> Any:
    """Undo JSON's tuple->list coercion on override values.

    The CLI and ``CaseSpec`` use tuples for fixed-arity values
    (``shape``, ``forcing``); round-tripping through a work item must
    hand workers the same types the scheduler fingerprinted."""
    if isinstance(value, list):
        return tuple(_retuple(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _retuple(v) for k, v in value.items()}
    return value


@dataclasses.dataclass(frozen=True)
class WorkItem:
    """One published variant, as a worker sees it: ``queue/<fingerprint>.json``.

    Every item carries its own ``case`` (one directory holds the work of
    many sweeps and serve requests), its grid ``index`` within the sweep
    or request that published it, and its ``analyze`` mode.  ``cost``
    is the variant's Eq. 5 memory traffic in bytes
    (:func:`predict_spec_costs`), the same on every host; ``None`` on
    items published without one.  Costs are advisory — they order
    claims, never gate them.
    """

    index: int
    overrides: dict[str, Any]
    fingerprint: str
    case: str
    analyze: bool = True
    cost: float | None = None

    def task(self, telemetry_dir: str | None = None) -> _VariantTask:
        return _VariantTask(
            case=self.case,
            overrides=tuple(sorted(self.overrides.items())),
            analyze=self.analyze,
            fingerprint=self.fingerprint,
            telemetry_dir=telemetry_dir,
        )

    def to_json(self) -> str:
        raw: dict[str, Any] = {
            "version": _ITEM_VERSION,
            "index": self.index,
            "case": self.case,
            "overrides": self.overrides,
            "fingerprint": self.fingerprint,
            "analyze": self.analyze,
        }
        if self.cost is not None:
            raw["cost"] = float(self.cost)
        return json.dumps(raw, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkItem":
        raw = json.loads(text)
        if raw["version"] != _ITEM_VERSION:
            raise ValueError(
                f"version {raw['version']}, expected {_ITEM_VERSION}"
            )
        return cls(
            index=int(raw["index"]),
            overrides={str(k): _retuple(v) for k, v in raw["overrides"].items()},
            fingerprint=str(raw["fingerprint"]),
            case=str(raw["case"]),
            analyze=bool(raw["analyze"]),
            cost=float(raw["cost"]) if raw.get("cost") is not None else None,
        )


@dataclasses.dataclass
class WorkQueue:
    """Work items published under ``<root>/queue/``, one file each.

    Publishing requires a *registered* case (workers on other hosts
    rebuild variants from the registry by name) and JSON-serialisable
    overrides — closures cannot cross hosts.  An item is created once
    and never rewritten: re-publishing a variant leaves the first item
    in place, so publishers only ever add work.  ``queued`` holds the
    fingerprint of every item on file, including any :meth:`load` was
    told to skip.
    """

    path: Path
    items: list[WorkItem]
    queued: frozenset[str] = frozenset()

    @classmethod
    def publish(
        cls,
        root: str | Path,
        plan: SweepPlan,
        analyze: bool,
        costs: "list[float | None] | None" = None,
    ) -> "WorkQueue":
        """Add a work item for every variant of ``plan`` under ``root``.

        ``costs`` (index-aligned with the plan) stamps each item with
        its predicted cost so workers can claim longest-first; omitted
        or ``None`` entries publish uncosted.
        """
        if not isinstance(plan.case_ref, str):
            raise ScenarioError(
                f"distributed sweeps need a registered case; "
                f"{plan.case!r} does not resolve through the registry"
            )
        if costs is not None and len(costs) != len(plan.fingerprints):
            raise ScenarioError(
                f"costs must align with the plan: got {len(costs)} for "
                f"{len(plan.fingerprints)} variants"
            )
        return cls.append(
            root,
            [
                WorkItem(
                    index=index,
                    overrides=dict(overrides),
                    fingerprint=fingerprint,
                    case=plan.case,
                    analyze=analyze,
                    cost=None if costs is None else costs[index],
                )
                for index, (overrides, fingerprint) in enumerate(
                    zip(plan.overrides, plan.fingerprints)
                )
            ],
        )

    @classmethod
    def append(cls, root: str | Path, items: "list[WorkItem]") -> "WorkQueue":
        """Create the work item of each of ``items`` under ``root``.

        Idempotent and safe under any number of concurrent publishers:
        an item that exists already wins, so re-submitting a request
        adds nothing — unless it asks for the other analyze mode, which
        is refused (one fingerprint has one item).  Returns the items as
        they are on file.
        """
        if not items:
            raise ScenarioError("cannot publish an empty work queue")
        queue_dir = Path(root) / QUEUE_DIRNAME
        written: list[WorkItem] = []
        for item in items:
            if item.analyze not in (True, False):
                raise ScenarioError(
                    f"analyze must be a bool, got {item.analyze!r}"
                )
            try:
                text = item.to_json()
            except (TypeError, ValueError) as exc:
                raise ScenarioError(
                    "distributed sweeps need JSON-serialisable overrides "
                    f"(case {item.case!r}): {exc}"
                ) from exc
            path = queue_dir / f"{item.fingerprint}.json"
            if create_once(path, text):
                written.append(item)
                continue
            existing = _read_item(path)
            if existing.analyze != item.analyze:
                raise ScenarioError(
                    f"work item {path} was published with "
                    f"analyze={existing.analyze}; cannot append it with "
                    f"analyze={item.analyze}"
                )
            written.append(existing)
        return cls(
            path=queue_dir,
            items=written,
            queued=frozenset(item.fingerprint for item in written),
        )

    @classmethod
    def load(cls, root: str | Path, skip: Iterable[str] = ()) -> "WorkQueue":
        """Read the work items under ``root``, except those in ``skip``
        (a worker skips the ones with a ``done/`` marker, so a drain
        reads only unfinished items); error if nothing was published.

        An item file that does not read (only a hand edit can make one:
        items appear complete or not at all) is left out with a
        warning, so it holds up no other item."""
        root = Path(root)
        warn_legacy_state(root)
        queue_dir = root / QUEUE_DIRNAME
        if not queue_dir.is_dir():
            raise ScenarioError(
                f"no published sweep under {root} — run "
                "`repro sweep ... --cache-dir DIR --publish` first"
            )
        queued = cls.listing(root)
        skip = set(skip)
        items = []
        for fingerprint in queued - skip:
            path = queue_dir / f"{fingerprint}.json"
            try:
                items.append(_read_item(path))
            except ScenarioError as exc:
                if path not in _warned_items:
                    _warned_items.add(path)
                    import logging  # loaded by the first warning

                    logging.getLogger(__name__).warning("skipping %s", exc)
        items.sort(key=lambda item: (item.index, item.fingerprint))
        return cls(path=queue_dir, items=items, queued=frozenset(queued))

    @staticmethod
    def listing(root: str | Path) -> set[str]:
        """Fingerprints of every item under ``root``: one directory
        listing, no item read; empty when nothing was published."""
        try:
            names = os.listdir(Path(root) / QUEUE_DIRNAME)
        except FileNotFoundError:
            return set()
        return {name[:-5] for name in names if name.endswith(".json")}

    def claim_order(self) -> list[WorkItem]:
        """The order workers should try to claim variants in.

        With a predicted cost on *every* item, claims go longest-first
        (LPT scheduling: starting the big variants early bounds the
        makespan at fleet-tail time, where grid order can strand the
        most expensive variant on the last worker).  Any uncosted item
        means the ranking would be arbitrary, so the order falls back
        to grid order wholesale.  Only claiming is reordered — the
        merge (:meth:`~repro.scenarios.executor.SweepExecutor.run`)
        always assembles grid order, so result tables stay
        bit-identical either way.
        """
        order = sorted(self.items, key=lambda item: (item.index, item.fingerprint))
        if any(item.cost is None for item in order):
            return order
        return sorted(order, key=lambda item: (-item.cost, item.index))


def _read_item(path: Path) -> WorkItem:
    try:
        return WorkItem.from_json(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"unreadable work item {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ScenarioError(f"corrupt work item {path}: {exc}") from exc


class LeaseBoard:
    """Per-variant lease files under ``<cache root>/leases/``.

    A lease is an advisory, TTL-bounded exclusive claim: acquiring
    creates ``<fingerprint>.lease`` atomically; releasing removes it;
    a stale lease (expired, or same-host owner dead) may be reclaimed
    by anyone.  Because sweep commits are idempotent, every race here
    degrades to duplicated work, not corruption.
    """

    def __init__(
        self,
        root: str | Path,
        owner: str | None = None,
        ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        if ttl <= 0:
            raise ScenarioError(f"lease ttl must be positive, got {ttl}")
        self.dir = Path(root) / LEASE_DIRNAME
        self.dir.mkdir(parents=True, exist_ok=True)
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self.owner = owner or f"{self.host}:{self.pid}:{uuid.uuid4().hex[:8]}"
        self.ttl = float(ttl)

    def path(self, fingerprint: str) -> Path:
        return self.dir / f"{fingerprint}.lease"

    def acquire(self, fingerprint: str) -> bool:
        """Claim one variant; ``False`` if someone else holds it."""
        now = time.time()
        record = ClaimRecord(
            owner=self.owner,
            resource=fingerprint,
            host=self.host,
            pid=self.pid,
            acquired_at=now,
            expires_at=now + self.ttl,
        )
        return write_claim(self.path(fingerprint), record)

    def holder(self, fingerprint: str) -> ClaimRecord | None:
        return read_claim(self.path(fingerprint))

    def renew(self, fingerprint: str) -> bool:
        """Extend our own lease's expiry; ``False`` if we lost it."""
        record = self.holder(fingerprint)
        if record is None or record.owner != self.owner:
            return False
        record.expires_at = time.time() + self.ttl
        refresh_claim(self.path(fingerprint), record)
        return True

    def release(self, fingerprint: str) -> bool:
        """Drop our own lease (no-op on a lease we no longer hold)."""
        return release_claim(self.path(fingerprint), self.owner)

    def stale(self, record: ClaimRecord) -> bool:
        """Expired TTL, or a same-host owner whose process is gone."""
        return _lease_stale(record, self.host, time.time())

    def reclaim(self, fingerprint: str) -> bool:
        """Break a *stale* lease; ``True`` iff we broke it.

        Staleness is the only criterion — deliberately including leases
        whose owner string matches ours, so a worker restarted with the
        same explicit ``--worker-id`` can recover its crashed
        predecessor's lease (a *live* own lease is never stale).  The
        caller still has to :meth:`acquire` afterwards — of many
        concurrent reclaimers exactly one succeeds in breaking, and the
        subsequent acquire is the usual atomic race.  Only the record
        judged stale is broken (:func:`~repro.core.io.break_claim`): a
        lease a peer re-took after our read stays.
        """
        record = self.holder(fingerprint)
        if record is None or not self.stale(record):
            return False
        return break_claim(self.path(fingerprint), record)

    def active(self) -> dict[str, ClaimRecord]:
        """All live (non-stale) leases on the board right now."""
        leases: dict[str, ClaimRecord] = {}
        for path in sorted(self.dir.glob("*.lease")):
            record = read_claim(path)
            if record is not None and not self.stale(record):
                leases[record.resource] = record
        return leases


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):  # exists but not ours
        return True
    return True


def _lease_stale(record: ClaimRecord, host: str, now: float) -> bool:
    """The one staleness rule: expired TTL, or a same-host dead owner.

    Shared by :meth:`LeaseBoard.stale` (what workers reclaim by) and
    :func:`sweep_status` (what the read-only view reports), so the two
    can never disagree about which leases are reclaimable.
    """
    if now >= record.expires_at:
        return True
    return record.host == host and not _pid_alive(record.pid)


def lease_holder(
    cache_dir: str | Path, fingerprint: str
) -> ClaimRecord | None:
    """The live holder of one variant's lease, else ``None``.

    Read-only targeted probe (one file stat, no directory scan, never
    creates ``leases/``) — how the serve job view decides a variant is
    *running* rather than merely queued.  Stale leases read as ``None``:
    a dead worker's claim is not progress.
    """
    path = Path(cache_dir) / LEASE_DIRNAME / f"{fingerprint}.lease"
    record = read_claim(path)
    if record is None:
        return None
    if _lease_stale(record, socket.gethostname(), time.time()):
        return None
    return record


@dataclasses.dataclass(frozen=True)
class SweepStatus:
    """Read-only snapshot of a sweep's coordination directory.

    Assembled by :func:`sweep_status` from directory listings — sweep
    records, work items, ``done/`` markers and lease files — the
    ``repro sweep-status`` view an operator uses to answer "how far
    along is this distributed sweep, and who is working on what?"
    without touching any of it.  ``total`` counts every variant a
    recorded sweep or a published item names; ``case`` and
    ``parameters`` are those of the most recently recorded sweep.
    """

    root: str
    case: str | None
    parameters: tuple[str, ...]
    total: int
    completed: int
    workers: dict[str, int]
    published: bool
    live_leases: tuple[ClaimRecord, ...]
    stale_leases: tuple[ClaimRecord, ...]
    #: Structured telemetry rollup (cache hit rate, per-worker
    #: throughput, ETA) when the directory has structured-event files;
    #: ``None`` when the fleet ran without telemetry.
    telemetry: FleetRollup | None = None
    #: Failure-ledger view: variants still retrying, and variants
    #: quarantined after ``max_attempts`` (rendered as ``FAILED`` rows
    #: by the merge layer).
    failing: tuple["FailureRecord", ...] = ()
    quarantined: tuple["FailureRecord", ...] = ()

    @property
    def missing(self) -> int:
        return self.total - self.completed

    @property
    def complete(self) -> bool:
        return self.total > 0 and self.completed >= self.total

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe dict form — the body behind ``sweep-status --json``
        and the serve ``GET /v1/fleet`` endpoint (same bytes, by
        construction: both render this through one serializer)."""
        return {
            "root": self.root,
            "case": self.case,
            "parameters": list(self.parameters),
            "variants": {
                "total": self.total,
                "completed": self.completed,
                "missing": self.missing,
            },
            "complete": self.complete,
            "published": self.published,
            "workers": dict(sorted(self.workers.items())),
            "leases": {
                "live": [dataclasses.asdict(r) for r in self.live_leases],
                "stale": [dataclasses.asdict(r) for r in self.stale_leases],
            },
            "telemetry": (
                None if self.telemetry is None else self.telemetry.to_payload()
            ),
            "failures": {
                "failing": [record.to_payload() for record in self.failing],
                "quarantined": [
                    record.to_payload() for record in self.quarantined
                ],
            },
        }

    def summary(self) -> str:
        """Human-readable report (what the CLI prints)."""
        if self.total == 0:
            return f"{self.root}: no sweep recorded (nothing published or run here)"
        lines = [
            f"sweep over case {self.case!r} ({', '.join(self.parameters)}) "
            f"under {self.root}"
            if self.case is not None
            else f"work published under {self.root} (no sweep recorded)",
            f"  variants: {self.total} total, {self.completed} completed, "
            f"{self.missing} missing"
            + (" — complete" if self.complete else ""),
            "  work order: "
            + ("published (sweep-worker ready)" if self.published else "not published"),
        ]
        for worker, count in sorted(self.workers.items()):
            lines.append(f"  worker {worker}: {count} variant(s) completed")
        if self.live_leases:
            lines.append(f"  active leases: {len(self.live_leases)}")
            now = time.time()
            for record in self.live_leases:
                lines.append(
                    f"    {record.resource[:12]} held by {record.owner} "
                    f"({record.host}, pid {record.pid}, "
                    f"expires in {max(0.0, record.expires_at - now):.0f}s)"
                )
        else:
            lines.append("  active leases: none")
        if self.stale_leases:
            lines.append(
                f"  stale leases: {len(self.stale_leases)} "
                "(reclaimable by any worker)"
            )
        if self.failing:
            lines.append(
                f"  failing: {len(self.failing)} variant(s) retrying"
            )
        if self.quarantined:
            lines.append(
                f"  quarantined: {len(self.quarantined)} variant(s) FAILED "
                "after max attempts"
            )
            for record in self.quarantined:
                last = record.last
                detail = (
                    f"{last.exception}: {last.message}" if last is not None else "?"
                )
                lines.append(
                    f"    {record.fingerprint[:12]}: {detail} "
                    f"({record.attempt_count} attempt(s))"
                )
        if self.telemetry is not None:
            lines.extend(self.telemetry.summary_lines())
        return "\n".join(lines)


def sweep_status(cache_dir: str | Path) -> SweepStatus:
    """Inspect a sweep cache directory without mutating it.

    Unlike :class:`LeaseBoard`, this never creates the leases directory
    or breaks stale claims — it only reads what is there: the sweep
    records and work items that name variants, the ``done/`` markers
    that complete them (with per-worker attribution), and each lease's
    liveness (expired TTL, or a same-host owner whose pid is gone,
    counts as stale).  No cache entry is read.
    """
    root = Path(cache_dir)
    if not root.is_dir():
        raise ScenarioError(f"no sweep cache directory at {root}")
    warn_legacy_state(root)
    records = SweepManifest.records(root)
    queued = WorkQueue.listing(root)
    named = set(queued)
    for record in records:
        named.update(record.fingerprints)
    cache = ResultCache(root)  # the directory exists: creates nothing
    completed = named & cache.done()
    workers: dict[str, int] = {}
    for fingerprint in completed:
        owner = cache.committer(fingerprint)
        if owner is not None:
            workers[owner] = workers.get(owner, 0) + 1
    host = socket.gethostname()
    now = time.time()
    live: list[ClaimRecord] = []
    stale: list[ClaimRecord] = []
    lease_dir = root / LEASE_DIRNAME
    if lease_dir.is_dir():
        for path in sorted(lease_dir.glob("*.lease")):
            record = read_claim(path)
            if record is None:
                continue
            (stale if _lease_stale(record, host, now) else live).append(record)
    total = len(named)
    telemetry: FleetRollup | None = None
    telemetry_dir = root / TELEMETRY_DIRNAME
    if telemetry_dir.is_dir():
        # Read-only like everything else here: load_run only globs and
        # parses the event files.
        from ..telemetry.aggregate import load_run

        telemetry = load_run(telemetry_dir).fleet_stats(
            remaining=total - len(completed)
        )
    ledger_records = FailureLedger(root).load()
    failing = tuple(
        record
        for _, record in sorted(ledger_records.items())
        if not record.quarantined
    )
    quarantined = tuple(
        record
        for _, record in sorted(ledger_records.items())
        if record.quarantined
    )
    newest = records[-1] if records else None
    return SweepStatus(
        root=str(root),
        case=newest.case if newest is not None else None,
        parameters=tuple(newest.parameters) if newest is not None else (),
        total=total,
        completed=len(completed),
        workers=workers,
        published=bool(queued),
        live_leases=tuple(live),
        stale_leases=tuple(stale),
        telemetry=telemetry,
        failing=failing,
        quarantined=quarantined,
    )


def predict_spec_costs(specs) -> "list[float]":
    """Each spec's memory traffic under the paper's roofline (Eq. 5):
    ``steps * prod(shape) * B(Q)`` bytes, with ``B(Q)`` from
    :func:`repro.machine.roofline.bytes_per_cell` at the spec's dtype.

    A pure function of the spec — no measurement, file or host name —
    so every publisher ranks a grid alike.  On a bandwidth-bound kernel
    wall-clock is this traffic over the host's ``Bm``, so ordering by it
    is longest-expected-first.  The costs only order which variants
    workers claim first, never what a variant computes.
    """
    costs = []
    for spec in specs:
        b = bytes_per_cell(get_lattice(spec.lattice), spec.dtype)
        costs.append(float(spec.steps * math.prod(spec.shape) * b))
    return costs
