"""Disk-backed job records and state derivation for ``repro serve``.

A "job" is just a named view over state the sweep substrate already
maintains — the server stores only the *request* (a :class:`JobRecord`
JSON file under ``<cache-dir>/jobs/``), never progress.  Status is
derived, not stored:

* a ``done/`` marker ⇒ the variant is **done**;
* quarantined by the failure ledger ⇒ **failed**;
* a live lease (:func:`repro.scenarios.scheduler.lease_holder`) ⇒
  **running**;
* a ``queue/`` item ⇒ **queued**;
* none of the above ⇒ **lost** (its item was removed from under the
  job — resubmitting re-enqueues it).

Status reads two directory listings, never a cache entry; the result
endpoint reads (and verifies) the entries themselves.

Because every input is on the shared directory, the server is
stateless: restart it (or start three of them) and every job answer
is unchanged.  Job ids are content-addressed too — the case spec's
fingerprint, or :func:`~repro.scenarios.cache.sweep_key` for sweeps —
so re-submitting an identical request yields the same id instead of a
duplicate job.
"""

from __future__ import annotations

import dataclasses
import json
import re
import time
from pathlib import Path
from typing import Any, Mapping

from .. import api
from ..core.io import atomic_write_text, create_once
from ..errors import ScenarioError
from ..resilience import FailureLedger
from ..scenarios.cache import sweep_key, warn_legacy_state
from ..scenarios.executor import usable_entry
from ..scenarios.scheduler import (
    WorkItem,
    WorkQueue,
    lease_holder,
    predict_spec_costs,
)
from ..scenarios.sweep import SweepResult
from ..telemetry.recorder import NULL_TELEMETRY

__all__ = ["JOBS_DIRNAME", "JobRecord", "JobStore"]

JOBS_DIRNAME = "jobs"

_RECORD_VERSION = 1

#: Job ids are hex digests (spec fingerprints / sweep keys); anything
#: else in a URL is rejected before it can name a path.
_JOB_ID = re.compile(r"[0-9a-f]{8,128}")


@dataclasses.dataclass(frozen=True)
class JobRecord:
    """One submitted request, as persisted under ``jobs/``.

    ``overrides`` holds the full per-variant override mappings (enough
    to rebuild each spec from the registry by name); ``variants`` the
    grid points (presentation); both index-aligned with
    ``fingerprints``.  Case jobs have one of each and no parameters.
    """

    id: str
    kind: str  # "case" | "sweep"
    case: str
    analyze: bool
    parameters: list[str]
    variants: list[dict[str, Any]]
    overrides: list[dict[str, Any]]
    fingerprints: list[str]
    created_at: float

    def to_json(self) -> str:
        data = dataclasses.asdict(self)
        data["version"] = _RECORD_VERSION
        return json.dumps(data, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "JobRecord":
        raw = json.loads(text)
        if raw.get("version") != _RECORD_VERSION:
            raise ScenarioError(
                f"job record version {raw.get('version')!r}, "
                f"expected {_RECORD_VERSION}"
            )
        return cls(
            id=str(raw["id"]),
            kind=str(raw["kind"]),
            case=str(raw["case"]),
            analyze=bool(raw["analyze"]),
            parameters=[str(p) for p in raw["parameters"]],
            variants=[api.decode_overrides(v) for v in raw["variants"]],
            overrides=[api.decode_overrides(o) for o in raw["overrides"]],
            fingerprints=[str(f) for f in raw["fingerprints"]],
            created_at=float(raw["created_at"]),
        )


class JobStore:
    """Submit, persist and answer jobs over one sweep cache directory.

    Safe under any number of threads and server processes: job records
    and work items are created once, and every read is a plain
    re-derivation from disk — see the module docstring.
    """

    def __init__(self, root: str | Path, telemetry=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.jobs_dir = self.root / JOBS_DIRNAME
        self.jobs_dir.mkdir(exist_ok=True)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.cache = api.open_cache(self.root, telemetry=self.telemetry)
        warn_legacy_state(self.root)

    # -- submission --------------------------------------------------------

    def submit_case(
        self,
        *,
        case: str,
        overrides: Mapping[str, Any] | None = None,
        steps: int | None = None,
        kernel: str | None = None,
        dtype: str | None = None,
    ) -> "tuple[JobRecord, dict[str, Any] | None]":
        """One case request: ``(record, payload)`` on a warm fingerprint
        (zero simulation steps executed), ``(record, None)`` after
        enqueueing a cold one."""
        request = api.case_request(
            case,
            steps=steps,
            overrides=api.decode_overrides(overrides or {}),
            kernel=kernel,
            dtype=dtype,
        )
        record = JobRecord(
            id=request.fingerprint,
            kind="case",
            case=request.case,
            analyze=True,
            parameters=[],
            variants=[],
            overrides=[request.overrides],
            fingerprints=[request.fingerprint],
            created_at=time.time(),
        )
        self._save(record)
        entry = usable_entry(self.cache, request.fingerprint, True)
        if entry is not None:
            if self.telemetry.enabled:
                self.telemetry.count("serve.cache.hit")
            # An entry written without a marker (run_case): mark it, so
            # the job's status reads done.
            self.cache.mark_done(request.fingerprint)
            return record, entry
        if self.telemetry.enabled:
            self.telemetry.count("serve.cache.miss")
        (cost,) = predict_spec_costs([request.spec])
        self._enqueue(
            [
                WorkItem(
                    index=0,
                    overrides=request.overrides,
                    fingerprint=request.fingerprint,
                    case=request.case,
                    cost=cost,
                )
            ]
        )
        return record, None

    def submit_sweep(
        self,
        *,
        case: str,
        grid: Mapping[str, Any],
        steps: int | None = None,
        kernel: str | None = None,
        dtype: str | None = None,
    ) -> "tuple[JobRecord, SweepResult | None]":
        """One sweep request: ``(record, result)`` when every variant is
        already warm, ``(record, None)`` after enqueueing the cold
        remainder (warm variants are never re-enqueued)."""
        decoded = {
            str(k): [api.decode_value(v) for v in values]
            for k, values in dict(grid).items()
        }
        request = api.sweep_request(
            case, decoded, steps=steps, kernel=kernel, dtype=dtype
        )
        record = JobRecord(
            id=sweep_key(request.case, request.fingerprints),
            kind="sweep",
            case=request.case,
            analyze=True,
            parameters=list(request.parameters),
            variants=[dict(v) for v in request.variants],
            overrides=[dict(o) for o in request.overrides],
            fingerprints=list(request.fingerprints),
            created_at=time.time(),
        )
        self._save(record)
        cold = []
        for index, (spec, ov, fp) in enumerate(
            zip(request.specs, request.overrides, request.fingerprints)
        ):
            if usable_entry(self.cache, fp, True) is None:
                cold.append((index, spec, ov, fp))
            else:
                self.cache.mark_done(fp)
        if self.telemetry.enabled:
            if len(request) > len(cold):
                self.telemetry.count("serve.cache.hit", len(request) - len(cold))
            if cold:
                self.telemetry.count("serve.cache.miss", len(cold))
        if not cold:
            return record, api.assemble_sweep(request, self.root)
        costs = predict_spec_costs([spec for _, spec, _, _ in cold])
        self._enqueue(
            [
                WorkItem(
                    index=index,
                    overrides=ov,
                    fingerprint=fp,
                    case=request.case,
                    cost=cost,
                )
                for (index, _, ov, fp), cost in zip(cold, costs)
            ]
        )
        return record, None

    def _save(self, record: JobRecord) -> None:
        """Persist a job record once: the first request's record (and
        its ``created_at``) stays; only a record that does not load is
        rewritten."""
        path = self.jobs_dir / f"{record.id}.json"
        if self.get(record.id) is not None:
            return
        if not create_once(path, record.to_json()) and self.get(record.id) is None:
            atomic_write_text(path, record.to_json())

    def _enqueue(self, items: "list[WorkItem]") -> None:
        """Add cold variants as work items (idempotent: an item that
        exists already wins)."""
        WorkQueue.append(self.root, items)
        if self.telemetry.enabled:
            self.telemetry.event("serve.queue.depth", depth=self.queue_depth())

    # -- derivation --------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        """Load one persisted job record (``None`` when unknown —
        including ids that are not even plausible digests)."""
        if not _JOB_ID.fullmatch(job_id):
            return None
        path = self.jobs_dir / f"{job_id}.json"
        try:
            return JobRecord.from_json(path.read_text())
        except (OSError, ValueError, KeyError, TypeError, ScenarioError):
            return None

    def queue_depth(self) -> int:
        """Published variants without a ``done/`` marker."""
        return len(WorkQueue.listing(self.root) - self.cache.done())

    def variant_states(self, record: JobRecord) -> dict[str, str]:
        """Fingerprint -> done/failed/running/queued/lost, from disk.

        ``failed`` means the fleet quarantined the variant (failure
        ledger, ``max_attempts`` exhausted) — terminal until the ledger
        entry is cleared.
        """
        queued = WorkQueue.listing(self.root)
        done = self.cache.done()
        quarantined = FailureLedger(self.root).quarantined()
        states: dict[str, str] = {}
        for fingerprint in record.fingerprints:
            if fingerprint in done:
                states[fingerprint] = "done"
            elif fingerprint in quarantined:
                states[fingerprint] = "failed"
            elif lease_holder(self.root, fingerprint) is not None:
                states[fingerprint] = "running"
            elif fingerprint in queued:
                states[fingerprint] = "queued"
            else:
                states[fingerprint] = "lost"
        return states

    def status_payload(self, record: JobRecord) -> dict[str, Any]:
        """The ``GET /v1/jobs/<id>`` body (also the 202 response)."""
        states = self.variant_states(record)
        counts = {"done": 0, "failed": 0, "running": 0, "queued": 0, "lost": 0}
        for state in states.values():
            counts[state] += 1
        if counts["done"] == len(states):
            status = "done"
        elif counts["running"]:
            status = "running"
        elif counts["queued"]:
            status = "queued"
        elif counts["failed"]:
            status = "failed"
        else:
            status = "lost"
        return {
            "id": record.id,
            "kind": record.kind,
            "case": record.case,
            "status": status,
            "variants": {"total": len(states), **counts},
            "fingerprints": states,
            "result": f"/v1/jobs/{record.id}/result" if status == "done" else None,
        }

    def result_response(
        self, record: JobRecord
    ) -> "tuple[str, dict[str, Any]] | None":
        """``(kind, payload)`` when the job's result is fully assembled
        from cache, else ``None`` (still in flight)."""
        if record.kind == "case":
            entry = usable_entry(
                self.cache, record.fingerprints[0], record.analyze, count=False
            )
            return None if entry is None else ("case", entry)
        request = api.SweepRequest(
            case=record.case,
            parameters=tuple(record.parameters),
            variants=[dict(v) for v in record.variants],
            overrides=[dict(o) for o in record.overrides],
            specs=[
                api.case_request(record.case, overrides=ov).spec
                for ov in record.overrides
            ],
            fingerprints=list(record.fingerprints),
        )
        result = api.assemble_sweep(request, self.root, analyze=record.analyze)
        return None if result is None else ("sweep", api.sweep_payload(result))
