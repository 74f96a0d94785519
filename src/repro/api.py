"""Stable programmatic facade over the scenario subsystem.

Everything a caller can do from the command line — run a case, run or
publish a sweep, drive a worker, inspect a fleet, evaluate the roofline
— is a keyword-only function here, and the CLI, the ``repro serve``
HTTP front end and library users all go through the *same* functions.
That single-path rule is what makes the byte-identity guarantee hold:
a warm ``POST /v1/case`` body and ``repro case --json`` output are the
same bytes because both are :func:`run_case` rendered through
:func:`repro.core.io.render_response`.

Contract notes:

* No function here prints or exits; failures raise
  :class:`~repro.errors.ReproError` subclasses (the CLI maps those to
  ``error: ...`` on stderr + exit code 2, the server to structured
  400 bodies).
* Results come back as plain dataclasses with ``to_payload``-style
  JSON-safe forms where a wire shape exists.
* ``cache_dir`` always means the shared content-addressed sweep cache
  directory; fingerprints are :meth:`CaseSpec.fingerprint`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import ScenarioError
from .scenarios.cache import ResultCache
from .scenarios.executor import (
    NONDETERMINISTIC_METRICS,
    SweepExecutor,
    SweepPlan,
    case_payload,
    result_from_payload,
    usable_entry,
)
from .resilience import DEFAULT_MAX_ATTEMPTS
from .scenarios.runner import CaseResult, CaseRunner
from .scenarios.sampling import AdaptiveSampler
from .scenarios.scheduler import (
    DEFAULT_LEASE_TTL,
    SweepStatus,
    WorkQueue,
    sweep_status as _sweep_status,
)
from .scenarios.spec import CaseSpec
from .scenarios.sweep import Sweep, SweepResult
from .scenarios.workers import WorkerReport
from .scenarios.workers import run_worker as _run_worker
from .core.io import serialize_result_data
from .telemetry.recorder import TELEMETRY_DIRNAME

__all__ = [
    "assemble_sweep",
    "build_sweep",
    "CaseOutcome",
    "CaseRequest",
    "case_request",
    "check_sweep_options",
    "CostEstimate",
    "decode_overrides",
    "decode_value",
    "DEFAULT_MAX_ATTEMPTS",
    "open_cache",
    "predict_cost",
    "publish_sweep",
    "run_case",
    "run_sweep",
    "run_worker",
    "sweep_payload",
    "sweep_request",
    "sweep_status",
    "SweepRequest",
    "telemetry_dir",
]


def telemetry_dir(cache_dir: str | Path) -> str:
    """A run's structured-event directory: ``<cache-dir>/telemetry``."""
    return str(Path(cache_dir) / TELEMETRY_DIRNAME)


def decode_value(value: Any) -> Any:
    """Normalise one JSON-decoded override value to its spec type.

    JSON has no tuples, so fixed-arity values (``shape``, ``forcing``)
    arrive as lists from HTTP bodies and job records; retupling them
    makes the resulting spec fingerprint identical to what the CLI's
    ``--set shape=16,16,4`` produces.
    """
    from .scenarios.scheduler import _retuple

    return _retuple(value)


def decode_overrides(mapping: Mapping[str, Any]) -> dict[str, Any]:
    """:func:`decode_value` over every value of an override mapping."""
    return {str(k): decode_value(v) for k, v in mapping.items()}


# -- cases ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CaseRequest:
    """One validated case request: the spec plus how it was asked for.

    ``overrides`` is the full merged override mapping (steps/dtype and
    the kernel the spec stores folded in) — exactly what a remote
    worker needs to rebuild the same spec from the registry by name,
    and what goes onto a work queue item.
    """

    case: str
    overrides: dict[str, Any]
    spec: CaseSpec
    fingerprint: str


def case_request(
    name: str,
    *,
    steps: int | None = None,
    overrides: Mapping[str, Any] | None = None,
    kernel: str | None = None,
    dtype: str | None = None,
    layout: str | None = None,
) -> CaseRequest:
    """Validate one case invocation into a fingerprinted request.

    Builds (and thereby validates) the spec without running anything.
    The request's ``overrides`` record the kernel the spec stores, so
    the ``"auto"`` alias arrives as the rung it names.
    """
    kwargs = dict(overrides or {})
    if steps is not None:
        kwargs["steps"] = steps
    if dtype is not None:
        kwargs["dtype"] = dtype
    if layout is not None:
        kwargs["layout"] = layout
    if kernel is not None:
        kwargs["kernel"] = kernel
    spec = CaseRunner(name, **kwargs).spec
    if "kernel" in kwargs:
        kwargs["kernel"] = spec.kernel
    return CaseRequest(
        case=spec.name,
        overrides=kwargs,
        spec=spec,
        fingerprint=spec.fingerprint(),
    )


@dataclasses.dataclass(frozen=True)
class CaseOutcome:
    """What :func:`run_case` hands back.

    ``payload`` is the canonical JSON-safe result body — identical
    bytes (through :func:`repro.core.io.render_response`) whether the
    run executed here (``cached=False``) or was served from a warm
    cache entry without a single simulation step (``cached=True``).
    ``result`` is a full :class:`CaseResult` for fresh runs and a lean
    rehydrated one (no simulation attached) for cache hits.
    """

    request: CaseRequest
    payload: dict[str, Any]
    cached: bool
    result: CaseResult

    @property
    def spec(self) -> CaseSpec:
        return self.request.spec

    @property
    def fingerprint(self) -> str:
        return self.request.fingerprint

    @property
    def passed(self) -> bool:
        return self.result.passed


def run_case(
    name: str,
    *,
    steps: int | None = None,
    overrides: Mapping[str, Any] | None = None,
    checkpoint: str | None = None,
    checkpoint_every: int = 0,
    resume: str | None = None,
    kernel: str | None = None,
    dtype: str | None = None,
    layout: str | None = None,
    analyze: bool = True,
    cache_dir: str | Path | None = None,
) -> CaseOutcome:
    """Run one registered case — or serve it from a warm result cache.

    With ``cache_dir``, the spec's fingerprint is probed first: a
    usable entry answers without executing a step, and a fresh run
    commits its payload back, so the next identical request (from any
    surface — CLI, HTTP, library) is free.  Checkpoint/resume are
    incompatible with ``cache_dir``: restart files are side effects a
    cached replay would silently skip.
    """
    request = case_request(
        name,
        steps=steps,
        overrides=overrides,
        kernel=kernel,
        dtype=dtype,
        layout=layout,
    )
    cache: ResultCache | None = None
    if cache_dir is not None:
        if checkpoint is not None or resume is not None:
            raise ScenarioError(
                "cache_dir cannot be combined with checkpoint/resume: "
                "restart files are side effects a cached replay would skip"
            )
        cache = ResultCache(cache_dir)
        entry = usable_entry(cache, request.fingerprint, analyze)
        if entry is not None:
            return CaseOutcome(
                request=request,
                payload=entry,
                cached=True,
                result=result_from_payload(request.spec, entry),
            )
    runner = CaseRunner(request.spec)
    result = runner.run(
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
        analyze=analyze,
    )
    payload = case_payload(result, analyze=analyze)
    if cache is not None:
        cache.put(request.fingerprint, payload)
    return CaseOutcome(
        request=request, payload=payload, cached=False, result=result
    )


# -- sweeps -----------------------------------------------------------------


def build_sweep(
    name: str,
    grid: Mapping[str, Sequence[Any]],
    *,
    steps: int | None = None,
    kernel: str | None = None,
    dtype: str | None = None,
    layout: str | None = None,
) -> Sweep:
    """The sweep object every sweep entry point expands."""
    fixed: dict[str, Any] = {}
    if kernel is not None:
        fixed["kernel"] = kernel
    if dtype is not None:
        fixed["dtype"] = dtype
    if layout is not None:
        fixed["layout"] = layout
    return Sweep(name, dict(grid), steps=steps, overrides=fixed)


def check_sweep_options(
    *,
    cache_dir: str | Path | None,
    publish: bool,
    resume: bool,
    adaptive: str | None,
    telemetry: bool,
) -> None:
    """The one place sweep option combinations are validated (error
    wording matches the CLI flags because that is where humans see it;
    the serve layer never exposes these combinations)."""
    if publish and cache_dir is None:
        raise ScenarioError(
            "--publish needs --cache-dir: distributed workers "
            "coordinate through the shared cache directory"
        )
    if adaptive is not None and (publish or resume):
        raise ScenarioError(
            "--adaptive picks variants from intermediate results, so it "
            "cannot be combined with --publish/--resume"
        )
    if telemetry and cache_dir is None:
        raise ScenarioError(
            "--telemetry needs --cache-dir: events are recorded under "
            "<cache-dir>/telemetry"
        )
    if telemetry and adaptive is not None:
        raise ScenarioError(
            "--telemetry is not supported with --adaptive (the sampler "
            "re-enters the executor per stage; instrument a plain sweep)"
        )


def run_sweep(
    name: str,
    grid: Mapping[str, Sequence[Any]],
    *,
    steps: int | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    resume: bool = False,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    adaptive: str | None = None,
    coarse_stride: int = 2,
    refine_fraction: float = 0.5,
    kernel: str | None = None,
    dtype: str | None = None,
    layout: str | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    telemetry: bool = False,
) -> SweepResult:
    """Run a parameter sweep and return its merged result.

    ``jobs`` > 1 runs the variants on that many local lease workers
    over ``cache_dir`` (a temporary directory when ``None``) under the
    fleet's failure policy: ``lease_ttl`` is their lease lifetime, and
    ``max_attempts`` bounds failures per variant before it is
    quarantined into an explicit ``FAILED`` row (``jobs=1`` runs
    inline and raises instead).  ``cache_dir`` keeps per-variant
    results (warm re-runs execute nothing); ``resume`` continues an
    interrupted sweep from its record; ``adaptive`` samples the grid
    (coarse pass, then refinement where the named observable changes
    fastest) instead of enumerating it; ``telemetry`` records
    structured JSONL events under ``<cache-dir>/telemetry``.

    Always executes through
    :class:`~repro.scenarios.executor.SweepExecutor`, so data columns
    are deterministic (wall-clock metrics never appear) and
    byte-identical across ``jobs`` and cache states.
    """
    check_sweep_options(
        cache_dir=cache_dir,
        publish=False,
        resume=resume,
        adaptive=adaptive,
        telemetry=telemetry,
    )
    sweep = build_sweep(
        name, grid, steps=steps, kernel=kernel, dtype=dtype, layout=layout
    )
    if adaptive is not None:
        sampler = AdaptiveSampler(
            sweep,
            observable=adaptive,
            coarse_stride=coarse_stride,
            refine_fraction=refine_fraction,
            jobs=jobs,
            cache_dir=cache_dir,
        )
        return sampler.run()
    executor = SweepExecutor(
        sweep,
        jobs=jobs,
        cache_dir=cache_dir,
        resume=resume,
        telemetry_dir=telemetry_dir(cache_dir) if telemetry else None,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
    )
    return executor.run()


def publish_sweep(
    name: str,
    grid: Mapping[str, Sequence[Any]],
    *,
    cache_dir: str | Path | None,
    steps: int | None = None,
    kernel: str | None = None,
    dtype: str | None = None,
    layout: str | None = None,
    resume: bool = False,
) -> "tuple[SweepPlan, WorkQueue]":
    """Add a sweep's work items and record under ``cache_dir``, and
    return them.

    Runs nothing: ``sweep-worker`` processes — on any hosts sharing
    ``cache_dir`` — claim and execute the variants, each with its own
    lease lifetime.  Items are stamped with their Eq. 5 traffic
    (:func:`~repro.scenarios.scheduler.predict_spec_costs`) so workers
    claim longest-first.
    """
    check_sweep_options(
        cache_dir=cache_dir,
        publish=True,
        resume=resume,
        adaptive=None,
        telemetry=False,
    )
    sweep = build_sweep(
        name, grid, steps=steps, kernel=kernel, dtype=dtype, layout=layout
    )
    return SweepExecutor(sweep, cache_dir=cache_dir, resume=resume).publish()


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """One validated sweep request, expanded and fingerprinted.

    ``variants`` are the grid points (what varies, for presentation);
    ``overrides`` the full per-variant override mappings (what a worker
    rebuilds the spec from); both index-aligned with ``fingerprints``.
    """

    case: str
    parameters: tuple[str, ...]
    variants: list[dict[str, Any]]
    overrides: list[dict[str, Any]]
    specs: list[CaseSpec]
    fingerprints: list[str]

    def __len__(self) -> int:
        return len(self.fingerprints)


def sweep_request(
    name: str,
    grid: Mapping[str, Sequence[Any]],
    *,
    steps: int | None = None,
    kernel: str | None = None,
    dtype: str | None = None,
    layout: str | None = None,
) -> SweepRequest:
    """Expand and validate a sweep without running or publishing it."""
    sweep = build_sweep(
        name, grid, steps=steps, kernel=kernel, dtype=dtype, layout=layout
    )
    plan = SweepPlan.of(sweep)
    if not isinstance(plan.case_ref, str):
        raise ScenarioError(
            f"sweep requests need a registered case; {plan.case!r} does "
            "not resolve through the registry"
        )
    return SweepRequest(
        case=plan.case,
        parameters=tuple(plan.parameters),
        variants=[dict(v) for v in plan.variants],
        overrides=[dict(o) for o in plan.overrides],
        specs=list(plan.specs),
        fingerprints=list(plan.fingerprints),
    )


def assemble_sweep(
    request: SweepRequest,
    cache_dir: str | Path,
    *,
    analyze: bool = True,
) -> SweepResult | None:
    """Rebuild a sweep result purely from warm cache entries.

    ``None`` unless *every* variant has a usable entry — the serve
    layer's "is the whole sweep ready?" probe doubles as its result
    assembly.  Probes silently (no cache hit/miss counters: this is
    status derivation, not a request outcome).
    """
    cache = ResultCache(cache_dir)
    results: list[CaseResult] = []
    for spec, fingerprint in zip(request.specs, request.fingerprints):
        entry = usable_entry(cache, fingerprint, analyze, count=False)
        if entry is None:
            return None
        results.append(result_from_payload(spec, entry))
    return SweepResult(
        case=request.case,
        parameters=tuple(request.parameters),
        variants=[dict(v) for v in request.variants],
        results=results,
        fingerprints=list(request.fingerprints),
    )


def sweep_payload(result: SweepResult) -> dict[str, Any]:
    """Canonical JSON-safe body of one sweep result.

    Deterministic by construction: per-variant payloads drop the
    timing-derived metrics (:data:`NONDETERMINISTIC_METRICS`) and the
    provenance column (which worker/cache served a variant) is
    deliberately excluded, so the same grid yields byte-identical
    bodies warm or cold, CLI or HTTP.
    """
    rows = []
    for res in result.results:
        metrics = {
            k: v
            for k, v in res.metrics.items()
            if k not in NONDETERMINISTIC_METRICS
        }
        row = json.loads(
            serialize_result_data(metrics, res.series, res.checks)
        )
        row["case"] = res.spec.name
        if res.failed:
            # Quarantined placeholder: flagged only when present so
            # clean sweep bodies stay byte-identical to earlier PRs.
            row["failed"] = True
        rows.append(row)
    return {
        "case": result.case,
        "parameters": list(result.parameters),
        "variants": [dict(v) for v in result.variants],
        "fingerprints": (
            list(result.fingerprints)
            if result.fingerprints is not None
            else None
        ),
        "passed": result.passed,
        "results": rows,
    }


# -- fleet ------------------------------------------------------------------


def open_cache(
    cache_dir: str | Path, *, telemetry: Any | None = None
) -> ResultCache:
    """The content-addressed result cache under ``cache_dir``.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) makes probe
    outcomes (hit/miss/corrupt) observable; default is the silent
    no-op recorder.
    """
    cache = ResultCache(cache_dir)
    if telemetry is not None:
        cache.telemetry = telemetry
    return cache


def sweep_status(cache_dir: str | Path) -> SweepStatus:
    """Read-only snapshot of a sweep cache directory.

    Pure data, no printing: render with :meth:`SweepStatus.summary`
    (the CLI table) or :meth:`SweepStatus.to_payload` (the
    ``/v1/fleet`` JSON body) as the surface demands.
    """
    return _sweep_status(cache_dir)


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
    telemetry: bool = False,
) -> WorkerReport:
    """Claim and run variants of the sweep published under ``cache_dir``.

    ``telemetry=True`` records the worker's structured events under
    ``<cache-dir>/telemetry``; see
    :func:`repro.scenarios.workers.run_worker` for the loop's
    semantics (``follow=True`` keeps serving appended work forever —
    the mode a ``repro serve`` fleet runs in; ``max_attempts`` /
    ``retry_backoff`` drive the failure ledger's retry-then-quarantine
    policy; ``idle_timeout`` lets waiting/following workers drain).
    """
    return _run_worker(
        cache_dir,
        worker_id=worker_id,
        lease_ttl=lease_ttl,
        poll=poll,
        max_variants=max_variants,
        wait=wait,
        follow=follow,
        max_attempts=max_attempts,
        retry_backoff=retry_backoff,
        idle_timeout=idle_timeout,
        telemetry_dir=telemetry_dir(cache_dir) if telemetry else None,
    )


# -- performance model ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CostEstimate:
    """The paper's Eq. 5 for one lattice on this host: the bandwidth
    ceiling ``mflups = Bm / B(Q)``, and the wall-clock ``seconds`` at
    that ceiling when shape and steps were given.  ``bandwidth`` is
    ``Bm`` in bytes/s, ``bytes_per_cell`` is ``B(Q)`` at ``dtype``."""

    lattice: str
    dtype: str
    bandwidth: float
    bytes_per_cell: int
    mflups: float
    seconds: float | None = None

    def to_payload(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def predict_cost(
    *,
    lattice: str,
    dtype: str = "float64",
    shape: Sequence[int] | None = None,
    steps: int | None = None,
) -> CostEstimate:
    """Evaluate Eq. 5's bandwidth term with this host's ``Bm``.

    ``Bm`` comes from :func:`repro.machine.roofline.copy_bandwidth`,
    measured on every call; nothing is read from or written to disk.
    Kernel, rank count and host do not enter Eq. 5, so they are not
    parameters.
    """
    from .lattice import get_lattice
    from .machine.roofline import bytes_per_cell, copy_bandwidth

    try:
        velocities = get_lattice(lattice)
        b = bytes_per_cell(velocities, dtype)
    except KeyError as exc:
        raise ScenarioError(str(exc.args[0])) from exc
    bandwidth = copy_bandwidth()
    seconds: float | None = None
    if shape is not None and steps:
        seconds = steps * math.prod(shape) * b / bandwidth
    return CostEstimate(
        lattice=velocities.name,
        dtype=dtype,
        bandwidth=bandwidth,
        bytes_per_cell=b,
        mflups=bandwidth / b / 1e6,
        seconds=seconds,
    )
