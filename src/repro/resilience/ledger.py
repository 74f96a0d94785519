"""Durable failure ledger for the sweep fleet.

``failures.json`` lives beside ``queue/`` in the sweep cache
directory and records every failed attempt at a variant, keyed by the
variant's content fingerprint.  Workers append attempt records under a
short-lived :func:`~repro.core.io.claim_lock` (the same claim-file
primitives that back leases, so it is safe across processes and hosts)
and the file itself is rewritten atomically — readers never see a torn
ledger.

Once a fingerprint accumulates ``max_attempts`` failures it is
**quarantined**: every worker skips it, the sweep terminates, and the
merge layer renders an explicit ``FAILED`` row instead of hanging or
crash-looping the fleet.  A successful run clears the fingerprint's
record, so transient failures leave no scar tissue.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import socket
import time
from pathlib import Path
from typing import Any

from ..core.io import atomic_write_text, claim_lock

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "FAILURES_FILENAME",
    "FailureAttempt",
    "FailureLedger",
    "FailureRecord",
    "describe_exception",
]

FAILURES_FILENAME = "failures.json"
DEFAULT_MAX_ATTEMPTS = 3
_LEDGER_VERSION = 1
_MESSAGE_LIMIT = 500


def describe_exception(exc: BaseException) -> tuple[str, str, str]:
    """``(class name, truncated message, traceback digest)`` for *exc*.

    The digest is a short stable hash of the formatted traceback so the
    ledger can show *which* failure mode repeated without shipping whole
    tracebacks into a shared JSON file.
    """
    import traceback  # failures only: not loaded by every importer

    name = type(exc).__name__
    message = str(exc)
    if len(message) > _MESSAGE_LIMIT:
        message = message[: _MESSAGE_LIMIT - 3] + "..."
    formatted = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    digest = hashlib.sha256(formatted.encode()).hexdigest()[:16]
    return name, message, digest


@dataclasses.dataclass(frozen=True)
class FailureAttempt:
    """One failed attempt at a variant."""

    worker: str
    host: str
    pid: int
    exception: str
    message: str
    digest: str
    at: float

    def to_payload(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "FailureAttempt":
        return cls(
            worker=str(payload.get("worker", "")),
            host=str(payload.get("host", "")),
            pid=int(payload.get("pid", 0)),
            exception=str(payload.get("exception", "")),
            message=str(payload.get("message", "")),
            digest=str(payload.get("digest", "")),
            at=float(payload.get("at", 0.0)),
        )


@dataclasses.dataclass
class FailureRecord:
    """All recorded attempts at one fingerprint."""

    fingerprint: str
    attempts: list[FailureAttempt] = dataclasses.field(default_factory=list)
    quarantined_at: float | None = None

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def quarantined(self) -> bool:
        return self.quarantined_at is not None

    @property
    def last(self) -> FailureAttempt | None:
        return self.attempts[-1] if self.attempts else None

    def next_retry_at(self, backoff: float, cap: float = 60.0) -> float:
        """Earliest time this variant should be retried.

        Exponential in the attempt count — ``backoff * 2**(n-1)``
        seconds after the latest failure, capped at ``cap``.
        """
        last = self.last
        if last is None or backoff <= 0:
            return 0.0
        delay = min(backoff * (2.0 ** (self.attempt_count - 1)), cap)
        return last.at + delay

    def to_payload(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "attempts": [attempt.to_payload() for attempt in self.attempts],
            "quarantined_at": self.quarantined_at,
        }

    @classmethod
    def from_payload(
        cls, fingerprint: str, payload: dict[str, Any]
    ) -> "FailureRecord":
        raw_attempts = payload.get("attempts", [])
        attempts = [
            FailureAttempt.from_payload(item)
            for item in raw_attempts
            if isinstance(item, dict)
        ]
        quarantined_at = payload.get("quarantined_at")
        return cls(
            fingerprint=fingerprint,
            attempts=attempts,
            quarantined_at=(
                float(quarantined_at) if quarantined_at is not None else None
            ),
        )


class FailureLedger:
    """Read/write view of one sweep's ``failures.json``.

    Construction touches nothing on disk; reading a missing or corrupt
    ledger yields an empty view (a torn ledger must never take the
    fleet down with it).  Writes go through a claim lock plus an atomic
    temp-file rename.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.path = self.root / FAILURES_FILENAME
        self.lock_path = self.root / (FAILURES_FILENAME + ".lock")
        self.max_attempts = int(max_attempts)

    # -- reading -----------------------------------------------------------

    def load(self) -> dict[str, FailureRecord]:
        """Every record on file (tolerant: absent/corrupt -> empty)."""
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict):
            return {}
        failures = raw.get("failures")
        if not isinstance(failures, dict):
            return {}
        records: dict[str, FailureRecord] = {}
        for fingerprint, payload in failures.items():
            if isinstance(payload, dict):
                records[str(fingerprint)] = FailureRecord.from_payload(
                    str(fingerprint), payload
                )
        return records

    def record(self, fingerprint: str) -> FailureRecord | None:
        return self.load().get(fingerprint)

    def attempt_count(self, fingerprint: str) -> int:
        record = self.record(fingerprint)
        return 0 if record is None else record.attempt_count

    def is_quarantined(self, fingerprint: str) -> bool:
        record = self.record(fingerprint)
        return record is not None and record.quarantined

    def quarantined(self) -> dict[str, FailureRecord]:
        """Quarantined records only, keyed by fingerprint."""
        return {
            fingerprint: record
            for fingerprint, record in self.load().items()
            if record.quarantined
        }

    # -- writing -----------------------------------------------------------

    def record_failure(
        self,
        fingerprint: str,
        exc: BaseException,
        *,
        worker: str = "",
    ) -> FailureRecord:
        """Append one failed attempt; quarantine at ``max_attempts``.

        Returns the updated record (check ``.quarantined`` to learn
        whether this attempt was the variant's last).
        """
        exception, message, digest = describe_exception(exc)
        attempt = FailureAttempt(
            worker=worker,
            host=socket.gethostname(),
            pid=os.getpid(),
            exception=exception,
            message=message,
            digest=digest,
            at=time.time(),
        )
        with claim_lock(self.lock_path):
            records = self.load()
            record = records.setdefault(fingerprint, FailureRecord(fingerprint))
            record.attempts.append(attempt)
            if (
                record.quarantined_at is None
                and record.attempt_count >= self.max_attempts
            ):
                record.quarantined_at = attempt.at
            self._save(records)
        return record

    def clear(self, fingerprint: str) -> bool:
        """Drop a fingerprint's record after a successful run."""
        if not self.path.exists():
            return False
        with claim_lock(self.lock_path):
            records = self.load()
            if fingerprint not in records:
                return False
            del records[fingerprint]
            self._save(records)
        return True

    def _save(self, records: dict[str, FailureRecord]) -> None:
        payload = {
            "version": _LEDGER_VERSION,
            "failures": {
                fingerprint: record.to_payload()
                for fingerprint, record in sorted(records.items())
            },
        }
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.path, json.dumps(payload, sort_keys=True, indent=1) + "\n"
        )
