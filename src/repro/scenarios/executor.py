"""The one sweep driver: per-variant caching, resume and local workers.

:class:`SweepExecutor` runs every sweep: ``repro sweep``,
:func:`repro.api.run_sweep`, :meth:`Sweep.run
<repro.scenarios.sweep.Sweep.run>` and each pass of the adaptive
sampler.  It expands the sweep into a :class:`SweepPlan`, reuses any
variant whose content hash already has a valid entry in the
:class:`~repro.scenarios.cache.ResultCache` (kept in a temporary
directory when the caller names none), renders variants the fleet
quarantined as explicit ``FAILED`` rows, and runs the rest.  With
``jobs > 1`` it publishes the plan's work items
(:class:`~repro.scenarios.scheduler.WorkQueue`) and starts that many
local lease workers (:func:`~repro.scenarios.workers.run_worker`, the
loop ``repro sweep-worker`` runs on any host); with ``jobs=1``, or a
plan that cannot be published, it runs them inline.  The sweep is
recorded once (:class:`~repro.scenarios.cache.SweepManifest`) and every
commit leaves a ``done/`` marker, so an interrupted sweep resumes with
only the missing variants.

Results are reduced to their scalar outcomes (metrics, observable
series, checks) before crossing process or disk boundaries; wall-clock
metrics such as ``mflups`` are stripped because they can never be
deterministic, and everything else round-trips through canonical JSON
so a sweep run under ``jobs=4`` emits tables byte-identical to
``jobs=1`` and to a warm-cache replay.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

from ..core.io import serialize_result_data
from ..errors import ScenarioError
from ..resilience import DEFAULT_MAX_ATTEMPTS, FailureLedger
from ..telemetry.recorder import (
    NullTelemetry,
    Telemetry,
    get_telemetry,
    process_recorder,
)
from .cache import ResultCache, SweepManifest, warn_legacy_state
from .registry import get_case
from .runner import CaseResult, CaseRunner
from .spec import CaseSpec
from .sweep import Sweep, SweepResult

if TYPE_CHECKING:
    from .scheduler import WorkQueue

__all__ = [
    "DEFAULT_LEASE_TTL",
    "SweepExecutor",
    "SweepPlan",
    "case_payload",
    "failed_payload",
    "open_cache",
    "result_from_payload",
    "usable_entry",
    "NONDETERMINISTIC_METRICS",
]

#: Metrics derived from wall-clock timing: meaningless to cache, fatal
#: to determinism, so the executor drops them from every payload.
#: ``distributed_mflups`` is the scaling-study case's measured slab
#: throughput (PR 5), as host-dependent as the driver's own ``mflups``.
NONDETERMINISTIC_METRICS = frozenset({"mflups", "distributed_mflups"})

#: Default lease lifetime.  Live workers heartbeat their lease every
#: TTL/4 while a variant runs, so this bounds how long a *killed*
#: worker's variant stays unclaimable — not how slow a variant may be.
DEFAULT_LEASE_TTL = 300.0


@dataclasses.dataclass(frozen=True)
class _VariantTask:
    """One variant's work order."""

    case: CaseSpec | str
    overrides: tuple[tuple[str, Any], ...]
    analyze: bool
    fingerprint: str
    #: Per-run telemetry directory; set, the executing process emits a
    #: ``variant`` span + counters into its own event file there.
    telemetry_dir: str | Path | None = None


def _task_telemetry(task: _VariantTask) -> "Telemetry | NullTelemetry":
    """The recorder ``_execute_variant`` reports through.

    Resolved *in the executing process*: with ``task.telemetry_dir``
    the per-process file recorder (workers forked from an instrumented
    driver get their own file, keyed by pid), else the
    ambient recorder — the no-op default, or whatever the surrounding
    worker installed.
    """
    if task.telemetry_dir:
        return process_recorder(task.telemetry_dir)
    return get_telemetry()


def _execute_variant(task: _VariantTask) -> dict[str, Any]:
    """Run one variant and reduce it to a canonical payload.

    Recomputing the fingerprint in the worker doubles as a
    cross-process stability check on :meth:`CaseSpec.fingerprint`.
    With telemetry enabled the run is wrapped in a ``variant`` span
    (fingerprint, case, steps, cells) and counted — the raw material
    for per-worker MFLUP/s rollups; the payload itself stays
    byte-identical either way.
    """
    runner = CaseRunner(task.case, **dict(task.overrides))
    fingerprint = runner.spec.fingerprint()
    if fingerprint != task.fingerprint:
        raise ScenarioError(
            f"variant fingerprint mismatch for case {runner.spec.name!r}: "
            f"scheduler saw {task.fingerprint[:12]}, worker computed "
            f"{fingerprint[:12]} — CaseSpec.fingerprint is not process-stable"
        )
    telemetry = _task_telemetry(task)
    with telemetry.span(
        "variant", fingerprint=fingerprint, case=runner.spec.name
    ) as span:
        result = runner.run(analyze=task.analyze)
        if telemetry.enabled:
            # Late attrs, known only after the run; recorded when the
            # span closes right below.
            steps = int(result.metrics.get("steps_run", 0))
            cells = (
                int(result.simulation.num_cells)
                if result.simulation is not None
                else int(math.prod(runner.spec.shape))
            )
            span.set(steps=steps, cells=cells)
    if telemetry.enabled:
        telemetry.count("variant.completed")
        telemetry.count("variant.updates", steps * cells)
        telemetry.count("variant.seconds", span.seconds or 0.0)
    return case_payload(result, analyze=task.analyze)


def case_payload(result: CaseResult, *, analyze: bool) -> dict[str, Any]:
    """Reduce one finished case run to its canonical cacheable payload.

    The single payload builder behind cache entries, CLI ``--json``
    output and serve HTTP bodies: timing-derived metrics are dropped
    (:data:`NONDETERMINISTIC_METRICS`) and floats round-trip through
    canonical JSON, so the same spec yields byte-identical payloads on
    any host, warm or cold.
    """
    metrics = {
        k: v for k, v in result.metrics.items()
        if k not in NONDETERMINISTIC_METRICS
    }
    payload = json.loads(
        serialize_result_data(metrics, result.series, result.checks)
    )
    payload["case"] = result.spec.name
    # Recorded so a cached analyze=False payload (no analysis metrics,
    # vacuous checks) is never served to an analyze=True sweep.
    payload["analyze"] = analyze
    return payload


def _portable_case_ref(base: CaseSpec) -> CaseSpec | str:
    """What workers rebuild the case from: the registry name when it
    resolves back to this very spec (resolvable on *other hosts*, and
    what makes the plan publishable), else the spec object itself."""
    try:
        if get_case(base.name) is base:
            return base.name
    except ScenarioError:
        pass
    return base


def result_from_payload(
    spec: CaseSpec, payload: Mapping[str, Any]
) -> CaseResult:
    """Rehydrate a lean :class:`CaseResult` (no simulation attached)."""
    return CaseResult(
        spec=spec,
        simulation=None,
        series={
            str(k): [float(v) for v in vs]
            for k, vs in payload["series"].items()
        },
        metrics=dict(payload["metrics"]),
        checks={str(k): bool(v) for k, v in payload["checks"].items()},
        failed=bool(payload.get("failed", False)),
    )


def failed_payload(case: str, record: Any, *, analyze: bool) -> dict[str, Any]:
    """Placeholder payload for a quarantined variant.

    Shaped like a real :func:`case_payload` (so it rehydrates through
    :func:`result_from_payload` into an explicit ``FAILED`` row) but
    never written to the result cache — the cache stays
    content-addressed over *successful* runs only, and clearing the
    failure ledger is all it takes to retry.
    """
    last = record.last
    return {
        "case": case,
        "analyze": analyze,
        "failed": True,
        "series": {},
        "metrics": {},
        "checks": {},
        "error": {
            "exception": last.exception if last is not None else "unknown",
            "message": last.message if last is not None else "",
            "attempts": record.attempt_count,
        },
    }


def usable_entry(
    cache: ResultCache,
    fingerprint: str,
    analyze: bool,
    count: bool = True,
) -> dict[str, Any] | None:
    """The cached payload for one variant iff it matches this sweep's
    ``analyze`` mode (an analyze=False smoke payload has no analysis
    metrics and vacuous checks, so it must never satisfy a full run).

    The default probe goes through :meth:`ResultCache.lookup`, which
    records ``cache.hit``/``cache.miss``/``cache.corrupt`` counters on
    the cache's recorder; ``count=False`` probes silently
    (:meth:`ResultCache.get`) for read-only status checks and
    under-lease re-checks that would otherwise inflate the counters.

    An entry that is on disk but unusable here — corrupt, or of the
    other analyze mode, so about to be re-run and overwritten — loses
    its ``done/`` marker, so worker drains stop skipping it."""
    entry = cache.lookup(fingerprint).payload if count else cache.get(fingerprint)
    if entry is not None and entry.get("analyze") == analyze:
        return entry
    if entry is not None or cache.entry_path(fingerprint).exists():
        cache.unmark(fingerprint)
    return None


@dataclasses.dataclass(frozen=True)
class SweepPlan:
    """Index-aligned expansion of one sweep, in grid order.

    ``variants`` are the raw grid points, ``overrides`` merge the
    sweep-level step count, ``specs`` are the validated variant specs
    and ``fingerprints`` their content hashes (the cache keys).  All
    four lists share indices; every consumer — executor, published
    work order, adaptive sampler — derives its work from one plan so
    their outputs are bit-identical over any subset.
    """

    case: str
    parameters: tuple[str, ...]
    variants: list[dict[str, Any]]
    overrides: list[dict[str, Any]]
    specs: list[CaseSpec]
    fingerprints: list[str]
    case_ref: CaseSpec | str

    @classmethod
    def of(cls, sweep: Sweep) -> "SweepPlan":
        base = sweep.spec
        # One expansion; overrides/specs/fingerprints are derived views
        # of it and must stay index-aligned.
        variants = sweep.expand()
        overrides = [sweep._with_steps(v) for v in variants]
        specs = [CaseRunner(base, **o).spec for o in overrides]
        return cls(
            case=base.name,
            parameters=tuple(sweep.parameters),
            variants=variants,
            overrides=overrides,
            specs=specs,
            fingerprints=[spec.fingerprint() for spec in specs],
            case_ref=_portable_case_ref(base),
        )

    def __len__(self) -> int:
        return len(self.variants)

    def subset(self, indices: Sequence[int]) -> "SweepPlan":
        """The plan of just the variants at ``indices``, in that order."""
        return dataclasses.replace(
            self,
            variants=[self.variants[i] for i in indices],
            overrides=[self.overrides[i] for i in indices],
            specs=[self.specs[i] for i in indices],
            fingerprints=[self.fingerprints[i] for i in indices],
        )

    def task(
        self, index: int, analyze: bool, telemetry_dir: str | Path | None = None
    ) -> _VariantTask:
        """The work order for one variant."""
        return _VariantTask(
            case=self.case_ref,
            overrides=tuple(sorted(self.overrides[index].items())),
            analyze=analyze,
            fingerprint=self.fingerprints[index],
            telemetry_dir=telemetry_dir,
        )

    def result(
        self, indices: Iterable[int], payloads: Mapping[int, Mapping[str, Any]],
        provenance: Mapping[int, str], **extra: Any,
    ) -> SweepResult:
        """Assemble a :class:`SweepResult` over ``indices`` (grid order)."""
        order = sorted(indices)
        return SweepResult(
            case=self.case,
            parameters=self.parameters,
            variants=[self.variants[i] for i in order],
            results=[
                result_from_payload(self.specs[i], payloads[i]) for i in order
            ],
            provenance=[provenance[i] for i in order],
            fingerprints=[self.fingerprints[i] for i in order],
            **extra,
        )


def open_cache(
    cache_dir: str | Path,
    case: str,
    parameters: Iterable[str],
    fingerprints: list[str],
    resume: bool = False,
) -> tuple[ResultCache, SweepManifest]:
    """The (cache, sweep record) pair for one sweep over one directory.

    ``resume=True`` requires the record of an earlier run of this same
    sweep under the directory (nothing to resume is an error);
    otherwise the record is created unless it exists already.
    """
    cache = ResultCache(cache_dir)
    warn_legacy_state(cache.root)
    parameters = list(parameters)
    if resume:
        manifest = SweepManifest.resume(cache.root, case, parameters, fingerprints)
    else:
        manifest = SweepManifest.create(cache.root, case, parameters, fingerprints)
    return cache, manifest


@contextlib.contextmanager
def _sweep_root(cache_dir: str | Path | None) -> Iterator[Path]:
    """``cache_dir``, or a temporary directory removed on exit: every
    sweep keeps its entries, work order and leases somewhere."""
    if cache_dir is not None:
        yield Path(cache_dir)
        return
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
        yield Path(tmp)


def _publish(root: Path, plan: SweepPlan, analyze: bool) -> "WorkQueue":
    """Add ``plan``'s work items under ``root``, each stamped with its
    Eq. 5 traffic so workers claim longest-first."""
    from .scheduler import WorkQueue, predict_spec_costs  # imports this module

    return WorkQueue.publish(
        root, plan, analyze, costs=predict_spec_costs(plan.specs)
    )


@dataclasses.dataclass
class SweepExecutor:
    """Run a sweep's variants through a result cache, inline or on
    local lease workers.

    >>> sweep = Sweep("taylor-green", {"tau": [0.6, 0.8]}, steps=50)
    >>> result = SweepExecutor(sweep, jobs=4, cache_dir="cache").run()
    >>> result.runs_executed  # second invocation: 0 (warm cache)

    Parameters
    ----------
    sweep:
        The sweep whose expanded variants to execute.
    jobs:
        ``1`` runs the missing variants inline, in this process, and a
        raising variant aborts the sweep.  ``N > 1`` publishes the work
        order under the cache directory and runs up to ``N`` local
        lease workers over it, under the fleet's failure policy: a
        raising variant is retried with backoff, then quarantined into
        a ``FAILED`` row.
    cache_dir:
        Directory of per-variant entries, their ``done/`` markers and
        the sweep's record under ``sweeps/`` (plus ``queue/`` items and
        ``leases/`` once workers run); ``None`` uses a temporary
        directory removed when :meth:`run` returns.
    resume:
        Require the record of an earlier, interrupted run of this same
        sweep under ``cache_dir``: nothing to resume is an error.
    telemetry_dir:
        Directory of append-only JSONL event files; setting it enables
        structured telemetry for the run — a per-process recorder here
        and in every worker, per-variant spans, and cache hit/miss
        counters.  ``None`` (default) leaves the ambient recorder in
        charge (usually the no-op).
    lease_ttl:
        Lease lifetime handed to the workers ``jobs > 1`` starts.
    max_attempts:
        Fleet-wide failed attempts (shared failure ledger) after which
        those workers quarantine a variant.
    """

    sweep: Sweep
    jobs: int = 1
    cache_dir: str | Path | None = None
    resume: bool = False
    telemetry_dir: str | Path | None = None
    lease_ttl: float = DEFAULT_LEASE_TTL
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ScenarioError(f"jobs must be >= 1, got {self.jobs}")
        if self.resume and self.cache_dir is None:
            raise ScenarioError("resume requires a cache directory")

    # -- orchestration -----------------------------------------------------

    def run(self, *, analyze: bool = True) -> SweepResult:
        """Reuse cached variants, run the missing ones, keep grid order.

        Provenance is ``cached`` (usable before this call), ``run``
        (executed during it, inline or by a worker it started) or
        ``failed`` (quarantined by the fleet's failure ledger).
        """
        plan = SweepPlan.of(self.sweep)
        recorder = (
            process_recorder(self.telemetry_dir)
            if self.telemetry_dir is not None
            else get_telemetry()
        )
        payloads: dict[int, Mapping[str, Any]] = {}
        provenance: dict[int, str] = {}
        with _sweep_root(self.cache_dir) as root:
            cache, manifest = open_cache(
                root,
                plan.case,
                plan.parameters,
                plan.fingerprints,
                resume=self.resume,
            )
            cache.telemetry = recorder
            # Variants the fleet quarantined become explicit FAILED rows
            # instead of being silently re-run here.
            quarantined = FailureLedger(cache.root).quarantined()
            pending = []
            for index, fingerprint in enumerate(plan.fingerprints):
                entry = usable_entry(cache, fingerprint, analyze)
                if entry is not None:
                    payloads[index] = entry
                    provenance[index] = "cached"
                    # Per-variant outcome (vs the raw storage probes the
                    # cache itself counts): feeds the fleet hit rate.
                    if recorder.enabled:
                        recorder.count("variant.cached")
                    # Adopt entries written without a marker (run_case,
                    # a crashed committer): no-op when one exists.
                    manifest.mark_complete(fingerprint)
                elif fingerprint in quarantined:
                    payloads[index] = failed_payload(
                        plan.case, quarantined[fingerprint], analyze=analyze
                    )
                    provenance[index] = "failed"
                else:
                    pending.append(index)
            done = self._run_pending(plan, pending, cache, analyze, manifest)
        for index, (payload, source) in done.items():
            payloads[index] = payload
            provenance[index] = source
        return plan.result(range(len(plan)), payloads, provenance)

    def publish(self, *, analyze: bool = True) -> "tuple[SweepPlan, WorkQueue]":
        """Expand the sweep, record it and add its work items under the
        cache dir.

        Runs nothing: ``sweep-worker`` processes on any host sharing the
        directory claim the variants, largest Eq. 5 traffic first
        (:meth:`~repro.scenarios.scheduler.WorkQueue.claim_order`).
        """
        if self.cache_dir is None:
            raise ScenarioError("publishing a sweep requires a cache directory")
        plan = SweepPlan.of(self.sweep)
        cache, _manifest = open_cache(
            self.cache_dir,
            plan.case,
            plan.parameters,
            plan.fingerprints,
            resume=self.resume,
        )
        return plan, _publish(cache.root, plan, analyze)

    # -- helpers -----------------------------------------------------------

    def _run_pending(
        self,
        plan: SweepPlan,
        pending: Sequence[int],
        cache: ResultCache,
        analyze: bool,
        manifest: SweepManifest | None = None,
    ) -> dict[int, tuple[dict[str, Any], str]]:
        """Run the variants at ``pending`` (indices into ``plan``) and
        commit each; returns every index's payload and provenance.

        Local lease workers take them first when they can help; whatever
        is still missing afterwards (every worker died, say) runs inline,
        where an exception propagates.
        """
        done: dict[int, tuple[dict[str, Any], str]] = {}
        if (
            self.jobs > 1
            and len(pending) > 1
            and self._run_workers(plan, cache.root, analyze, len(pending))
        ):
            # The workers committed to the cache and the failure ledger:
            # read both back.  Silent probes — the workers counted their
            # own cache outcomes.
            quarantined = FailureLedger(cache.root).quarantined()
            for index in pending:
                fingerprint = plan.fingerprints[index]
                entry = usable_entry(cache, fingerprint, analyze, count=False)
                if entry is not None:
                    done[index] = (entry, "run")
                elif fingerprint in quarantined:
                    record = quarantined[fingerprint]
                    done[index] = (
                        failed_payload(plan.case, record, analyze=analyze),
                        "failed",
                    )
        for index in pending:
            if index in done:
                continue
            fingerprint = plan.fingerprints[index]
            payload = _execute_variant(
                plan.task(index, analyze, self.telemetry_dir)
            )
            # Persist immediately: a crash after this point costs
            # nothing on resume.
            cache.put(fingerprint, payload)
            if manifest is not None:
                manifest.mark_complete(fingerprint)
            done[index] = (payload, "run")
        return done

    def _run_workers(
        self, plan: SweepPlan, root: Path, analyze: bool, pending: int
    ) -> bool:
        """Publish ``plan`` under ``root`` and run ``min(jobs, pending)``
        local lease workers until they exit.  ``False``, with nothing
        started, when the plan cannot be published: an unregistered
        case, or overrides JSON cannot carry."""
        import multiprocessing

        from .workers import run_worker  # imports this module

        try:
            _publish(root, plan, analyze)
        except ScenarioError:
            return False
        # The platform's default start method (fork on Linux) lets
        # workers see cases registered at run time in this process: they
        # rebuild every variant from the registry by name.
        processes = [
            multiprocessing.Process(
                target=run_worker,
                args=(str(root),),
                kwargs={
                    "worker_id": f"w{rank + 1}",
                    "lease_ttl": self.lease_ttl,
                    "max_attempts": self.max_attempts,
                    "telemetry_dir": self.telemetry_dir,
                },
            )
            for rank in range(min(self.jobs, pending))
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
        return True
