"""Per-variant result cache, commit markers and sweep records.

The sweep executor keys each variant by its spec's content hash
(:meth:`~repro.scenarios.spec.CaseSpec.fingerprint`) and stores the
variant's scalar outcomes — metrics, observable series, checks — as a
checksummed JSON entry.  Entries are content-addressed: a warm cache
makes re-running an identical sweep (or a superset sweep sharing some
variants) free, and the checksum catches truncated or hand-edited
entries so they are transparently re-run instead of poisoning tables.

Beside the entries, every piece of shared state is one file per item,
created once (:func:`repro.core.io.create_once`), so writers only ever
add and never rewrite each other's state:

``done/<fingerprint>``
    The commit marker: whoever committed (or adopted) the entry, written
    after it.  Markers decide only what a worker skips — a drain costs
    O(unmarked items) — never what a reader trusts: every read that
    returns a payload still verifies the entry's checksum.
``sweeps/<key>.json``
    One sweep's identity (:class:`SweepManifest`): case, parameters and
    ordered fingerprints, so ``--resume`` can prove it continues a sweep
    started here and ``sweep-status`` can report totals.
``queue/<fingerprint>.json``
    Published work items (:class:`repro.scenarios.scheduler.WorkQueue`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.io import atomic_write_text, canonical_json, create_once
from ..errors import ScenarioError
from ..resilience.ledger import FAILURES_FILENAME
from ..telemetry.recorder import NULL_TELEMETRY, NullTelemetry, Telemetry

__all__ = [
    "CORRUPT_DIRNAME",
    "CacheDiff",
    "CacheLookup",
    "DONE_DIRNAME",
    "QUEUE_DIRNAME",
    "ResultCache",
    "SWEEPS_DIRNAME",
    "SweepManifest",
    "sweep_key",
    "warn_legacy_state",
]


_ENTRY_VERSION = 1

#: Directory of commit markers: one small file per committed entry,
#: naming the worker that committed it.
DONE_DIRNAME = "done"
#: Directory of published work items (written by
#: :class:`repro.scenarios.scheduler.WorkQueue`).
QUEUE_DIRNAME = "queue"
#: Directory of sweep records (:class:`SweepManifest`).
SWEEPS_DIRNAME = "sweeps"

#: Single-slot state files of older releases.  They are never read;
#: reserved so cache key listings never mistake them for entries.
LEGACY_FILENAMES = ("queue.json", "manifest.json")

#: Sidecar directory corrupt entries are renamed into (see
#: :meth:`ResultCache.quarantine_corrupt`).
CORRUPT_DIRNAME = "corrupt"

_warned_legacy: set[Path] = set()


def warn_legacy_state(root: str | Path) -> None:
    """Warn, once per directory and process, that ``root`` still holds
    a ``queue.json`` or ``manifest.json`` from an older release.

    Both are ignored: work is published as ``queue/`` items and progress
    is the ``done/`` markers, so such a sweep must be republished (see
    the README's upgrade note).
    """
    root = Path(root)
    if root in _warned_legacy:
        return
    found = [name for name in LEGACY_FILENAMES if (root / name).exists()]
    if found:
        _warned_legacy.add(root)
        import logging  # loaded by the first warning, not by every importer

        logging.getLogger(__name__).warning(
            "%s holds %s from an older release; ignored — republish the "
            "sweep (README: 'Upgrading a cache directory')",
            root,
            " and ".join(found),
        )


def _checksum(data: Any) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def sweep_key(case: str, fingerprints: Sequence[str]) -> str:
    """Identity of one sweep: the case plus its ordered variant hashes."""
    return _checksum({"case": case, "fingerprints": list(fingerprints)})


@dataclasses.dataclass(frozen=True)
class CacheLookup:
    """One cache probe's outcome: a status plus the payload on a hit.

    ``status`` distinguishes what :meth:`ResultCache.get` historically
    conflated: ``"hit"`` (valid entry), ``"miss"`` (no entry at all) and
    ``"corrupt"`` (an entry exists but is truncated, tampered, or filed
    under the wrong key) — so corrupt counters are truthful and corrupt
    paths get logged instead of silently re-run.
    """

    status: str  # "hit" | "miss" | "corrupt"
    payload: dict[str, Any] | None = None

    @property
    def hit(self) -> bool:
        return self.status == "hit"


class ResultCache:
    """Content-addressed store of per-variant sweep results.

    Each entry lives at ``<root>/<fingerprint>.json`` as::

        {"version": 1, "fingerprint": ..., "checksum": ..., "data": {...}}

    where ``data`` holds the serialisable outcome payload and
    ``checksum`` is the SHA-256 of its canonical JSON.  :meth:`get`
    returns ``None`` for missing, truncated, tampered or mismatched
    entries — the caller simply re-runs those variants.  :meth:`lookup`
    is the observable variant: it distinguishes missing from corrupt,
    logs corrupt entry paths, and counts ``cache.hit`` /
    ``cache.miss`` / ``cache.corrupt`` on the attached recorder.

    A committed entry also gets a marker, ``done/<fingerprint>``
    (:meth:`mark_done`), holding the id of the worker that committed
    it; :meth:`done` lists them without reading any entry.
    """

    def __init__(
        self,
        root: str | Path,
        telemetry: "Telemetry | NullTelemetry | None" = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry

    def entry_path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def marker_path(self, fingerprint: str) -> Path:
        return self.root / DONE_DIRNAME / fingerprint

    def mark_done(self, fingerprint: str, worker: str | None = None) -> bool:
        """Record the entry of ``fingerprint`` as committed by ``worker``.

        Created once: the first marker keeps its attribution, and
        ``False`` means one was already there.  Call it only after the
        entry is on disk."""
        path = self.marker_path(fingerprint)
        if path.exists():
            return False
        return create_once(path, json.dumps({"worker": worker}))

    def committer(self, fingerprint: str) -> str | None:
        """The worker id inside a marker (``None``: no marker, or one
        written by an inline sweep)."""
        try:
            worker = json.loads(self.marker_path(fingerprint).read_text())["worker"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return None if worker is None else str(worker)

    def unmark(self, fingerprint: str) -> None:
        """Drop a marker whose entry turned out unusable, so the next
        worker drain runs the variant again."""
        try:
            self.marker_path(fingerprint).unlink()
        except OSError:
            pass

    def done(self) -> set[str]:
        """Fingerprints with a marker: one directory listing (a marker
        still being created is a dotted temp name, left out)."""
        try:
            names = os.listdir(self.root / DONE_DIRNAME)
        except FileNotFoundError:
            return set()
        return {name for name in names if "." not in name}

    def _load(self, fingerprint: str) -> CacheLookup:
        """Read and validate one entry (no counters — the shared
        validator behind both :meth:`get` and :meth:`lookup`)."""
        path = self.entry_path(fingerprint)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return CacheLookup("miss")
        except OSError:
            return CacheLookup("corrupt")
        try:
            envelope = json.loads(text)
        except ValueError:
            return CacheLookup("corrupt")
        if not isinstance(envelope, dict):
            return CacheLookup("corrupt")
        data = envelope.get("data")
        if (
            envelope.get("version") != _ENTRY_VERSION
            or envelope.get("fingerprint") != fingerprint
            or not isinstance(data, dict)
            or envelope.get("checksum") != _checksum(data)
        ):
            return CacheLookup("corrupt")
        return CacheLookup("hit", data)

    def get(self, fingerprint: str) -> dict[str, Any] | None:
        """The cached payload for one variant, or ``None`` if unusable."""
        return self._load(fingerprint).payload

    def lookup(self, fingerprint: str) -> CacheLookup:
        """Probe one entry, counting and logging the outcome.

        Counters record storage-level probe outcomes (``cache.hit``,
        ``cache.miss``, ``cache.corrupt``); a corrupt entry additionally
        logs its path — a tampered or torn entry is worth an operator's
        attention even though it is transparently re-run.  Its marker
        goes too, so the next worker drain re-runs it.
        """
        found = self._load(fingerprint)
        if found.status == "corrupt":
            path = self.entry_path(fingerprint)
            moved = self.quarantine_corrupt(fingerprint)
            self.unmark(fingerprint)
            import logging

            logging.getLogger(__name__).warning(
                "corrupt cache entry at %s (quarantined to %s; will re-run)",
                path,
                moved,
            )
            self.telemetry.count("cache.corrupt", path=str(path))
        else:
            self.telemetry.count(f"cache.{found.status}")
        return found

    def quarantine_corrupt(self, fingerprint: str) -> Path | None:
        """Move a corrupt entry aside so the slot is cheaply rewritable.

        An atomic rename into the ``corrupt/`` sidecar directory: later
        probes of this fingerprint are plain misses instead of re-paying
        the parse-and-log cost, :meth:`put` re-warms the slot normally,
        and the torn bytes stay on disk for postmortems.  Racing peers
        are fine — exactly one rename wins, the rest return ``None``.
        """
        path = self.entry_path(fingerprint)
        sidecar = self.root / CORRUPT_DIRNAME
        try:
            sidecar.mkdir(parents=True, exist_ok=True)
            target = sidecar / path.name
            os.replace(path, target)
        except OSError:
            return None
        return target

    def put(self, fingerprint: str, data: Mapping[str, Any]) -> Path:
        """Store one variant's payload (atomically; overwrites)."""
        text = canonical_json(data)  # canonicalise once: checksum + data
        envelope = {
            "version": _ENTRY_VERSION,
            "fingerprint": fingerprint,
            "checksum": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "data": json.loads(text),
        }
        path = self.entry_path(fingerprint)
        atomic_write_text(path, json.dumps(envelope, sort_keys=True, indent=1))
        return path

    def keys(self) -> tuple[str, ...]:
        """Fingerprints of every readable-looking entry on disk."""
        reserved = {*LEGACY_FILENAMES, FAILURES_FILENAME}
        return tuple(
            sorted(p.stem for p in self.root.glob("*.json") if p.name not in reserved)
        )

    def checksum(self, fingerprint: str) -> str | None:
        """The payload checksum of one valid entry, else ``None``.

        Validity is exactly :meth:`get`'s — one validator, two views."""
        data = self.get(fingerprint)
        return None if data is None else _checksum(data)

    def diff(self, other: "ResultCache") -> "CacheDiff":
        """Compare two sweep caches entry-by-entry.

        Entries are matched by fingerprint and compared by payload
        checksum, so two caches populated by different hosts/processes
        from the same sweep diff as identical — the cache-aware
        analysis primitive behind "what changed between these two sweep
        runs?".  Invalid entries count as missing.
        """
        mine = {fp: self.checksum(fp) for fp in self.keys()}
        theirs = {fp: other.checksum(fp) for fp in other.keys()}
        mine = {fp: c for fp, c in mine.items() if c is not None}
        theirs = {fp: c for fp, c in theirs.items() if c is not None}
        shared = set(mine) & set(theirs)
        return CacheDiff(
            only_self=tuple(sorted(set(mine) - set(theirs))),
            only_other=tuple(sorted(set(theirs) - set(mine))),
            differing=tuple(
                sorted(fp for fp in shared if mine[fp] != theirs[fp])
            ),
            matching=tuple(
                sorted(fp for fp in shared if mine[fp] == theirs[fp])
            ),
        )


@dataclasses.dataclass(frozen=True)
class CacheDiff:
    """Outcome of :meth:`ResultCache.diff`, as sorted fingerprint sets."""

    only_self: tuple[str, ...]
    only_other: tuple[str, ...]
    differing: tuple[str, ...]
    matching: tuple[str, ...]

    @property
    def identical(self) -> bool:
        return not (self.only_self or self.only_other or self.differing)

    def summary(self) -> str:
        return (
            f"{len(self.matching)} matching, {len(self.differing)} differing, "
            f"{len(self.only_self)} only-left, {len(self.only_other)} only-right"
        )


@dataclasses.dataclass
class SweepManifest:
    """One sweep's record, ``sweeps/<key>.json``, viewed with its progress.

    The record holds what identifies the sweep — case, parameters and
    ordered fingerprints — and is created once.  Progress is not stored
    in it: ``completed`` (grid order) and ``workers`` (fingerprint ->
    committing worker; inline runs attribute none) are read from the
    ``done/`` markers when the record is loaded, and
    :meth:`record_completion` adds a marker.  Any number of sweeps keep
    their records side by side in one directory.
    """

    root: Path
    case: str
    parameters: list[str]
    fingerprints: list[str]
    completed: list[str] = dataclasses.field(default_factory=list)
    workers: dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def key(self) -> str:
        return sweep_key(self.case, self.fingerprints)

    @property
    def path(self) -> Path:
        return self.root / SWEEPS_DIRNAME / f"{self.key}.json"

    def missing(self) -> list[str]:
        done = set(self.completed)
        return [fp for fp in self.fingerprints if fp not in done]

    @property
    def complete(self) -> bool:
        return not self.missing()

    def mark_complete(self, fingerprint: str) -> None:
        """Record a completion made inline, by no worker."""
        self.record_completion(fingerprint)

    def record_completion(self, fingerprint: str, worker: str | None = None) -> None:
        """Add the marker of one committed variant.

        Concurrent writers cannot erase each other: each completion is
        its own file, and the first marker of a fingerprint keeps its
        attribution."""
        if ResultCache(self.root).mark_done(fingerprint, worker) and worker:
            self.workers[fingerprint] = worker
        if fingerprint not in self.completed:
            self.completed.append(fingerprint)

    def save(self) -> Path:
        """Write the record once; an existing one (same key, so the same
        content) is left as it is."""
        path = self.path
        if not path.exists():
            create_once(
                path,
                json.dumps(
                    {
                        "key": self.key,
                        "case": self.case,
                        "parameters": self.parameters,
                        "fingerprints": self.fingerprints,
                    },
                    indent=1,
                ),
            )
        return path

    @classmethod
    def create(
        cls,
        root: str | Path,
        case: str,
        parameters: Sequence[str],
        fingerprints: Sequence[str],
    ) -> "SweepManifest":
        manifest = cls(
            root=Path(root),
            case=case,
            parameters=list(parameters),
            fingerprints=list(fingerprints),
        )
        manifest.save()
        return manifest

    @classmethod
    def _read(cls, root: Path, path: Path) -> "SweepManifest | None":
        try:
            raw = json.loads(path.read_text())
            return cls(
                root=root,
                case=str(raw["case"]),
                parameters=[str(p) for p in raw["parameters"]],
                fingerprints=[str(f) for f in raw["fingerprints"]],
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    @classmethod
    def records(cls, root: str | Path) -> "list[SweepManifest]":
        """Every readable sweep record under ``root``, oldest first,
        without progress."""
        root = Path(root)
        sweeps = root / SWEEPS_DIRNAME
        if not sweeps.is_dir():
            return []
        dated = []
        for path in sweeps.glob("*.json"):
            try:
                dated.append((path.stat().st_mtime_ns, path.name, path))
            except OSError:
                continue
        found = (cls._read(root, path) for _, _, path in sorted(dated))
        return [manifest for manifest in found if manifest is not None]

    @classmethod
    def load(cls, root: str | Path, key: str | None = None) -> "SweepManifest | None":
        """The record of sweep ``key`` under ``root`` — by default the
        most recently created one — with its progress; ``None`` if
        absent or corrupt."""
        root = Path(root)
        if key is None:
            records = cls.records(root)
            manifest = records[-1] if records else None
        else:
            manifest = cls._read(root, root / SWEEPS_DIRNAME / f"{key}.json")
        if manifest is None:
            return None
        cache = ResultCache(root)
        done = cache.done()
        manifest.completed = [fp for fp in manifest.fingerprints if fp in done]
        for fp in manifest.completed:
            worker = cache.committer(fp)
            if worker is not None:
                manifest.workers[fp] = worker
        return manifest

    @classmethod
    def resume(
        cls,
        root: str | Path,
        case: str,
        parameters: Sequence[str],
        fingerprints: Sequence[str],
    ) -> "SweepManifest":
        """The record of an interrupted run of *this* sweep.

        Raises :class:`ScenarioError` when this sweep was never started
        under ``root``.  Records of other sweeps do not matter: entries
        are content-addressed, so sweeps sharing a directory cannot mix.
        """
        manifest = cls.load(root, sweep_key(case, fingerprints))
        if manifest is None:
            raise ScenarioError(
                f"nothing to resume: no record of this sweep (case {case!r} "
                f"over {', '.join(parameters)}) under {root}"
            )
        return manifest
