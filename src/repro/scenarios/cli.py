"""Command-line front end for the scenario subsystem.

Wired into ``python -m repro`` as the ``cases``/``case``/``sweep``/
``sweep-worker``/``sweep-status``/``serve``/``events``/``perf-model``
subcommands; the thin ``examples/*.py`` wrappers call
:func:`run_case_cli` / :func:`run_sweep_cli` directly.

Pure parsing and rendering: every subcommand converts argv into
keyword arguments for :mod:`repro.api` and prints what comes back —
as text tables, or (``--json``) through
:func:`repro.core.io.render_response`, the same serializer the
``repro serve`` HTTP front end writes its bodies with.  That shared
path is what makes ``repro case --json`` output and a warm
``POST /v1/case`` body byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from .. import api
from ..core.io import render_response
from ..errors import ReproError, ScenarioError

__all__ = [
    "main",
    "run_case_cli",
    "run_events_cli",
    "run_perf_model_cli",
    "run_serve_cli",
    "run_status_cli",
    "run_sweep_cli",
    "run_worker_cli",
]


def _parse_value(text: str) -> Any:
    """Best-effort scalar parsing for ``--set``/``--param`` values."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return text


def _parse_assignments(pairs: Sequence[str]) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ScenarioError(f"expected key=value, got {pair!r}")
        if "," in value:  # e.g. --set shape=16,16,4
            overrides[key] = tuple(_parse_value(v) for v in value.split(","))
        else:
            overrides[key] = _parse_value(value)
    return overrides


def _parse_grid(pairs: Sequence[str]) -> dict[str, list[Any]]:
    grid: dict[str, list[Any]] = {}
    for pair in pairs:
        key, sep, values = pair.partition("=")
        if not sep or not key or not values:
            raise ScenarioError(f"expected key=v1,v2,..., got {pair!r}")
        grid[key] = [_parse_value(v) for v in values.split(",")]
    return grid


def run_case_cli(
    name: str,
    *,
    steps: int | None = None,
    overrides: dict[str, Any] | None = None,
    checkpoint: str | None = None,
    checkpoint_every: int = 0,
    resume: str | None = None,
    kernel: str | None = None,
    dtype: str | None = None,
    layout: str | None = None,
    cache_dir: str | None = None,
    as_json: bool = False,
) -> int:
    """Run one case (or serve it warm from ``cache_dir``) and print it.

    ``as_json`` renders the canonical schema-versioned envelope instead
    of the text summary — the exact bytes ``repro serve`` answers a
    warm ``POST /v1/case`` with (informational lines move to stderr so
    stdout stays pure JSON).
    """
    outcome = api.run_case(
        name,
        steps=steps,
        overrides=overrides,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
        kernel=kernel,
        dtype=dtype,
        layout=layout,
        cache_dir=cache_dir,
    )
    info = sys.stderr if as_json else sys.stdout
    if outcome.cached:
        print(f"cache hit: {outcome.fingerprint} (0 steps executed)", file=info)
    if as_json:
        print(render_response("case", outcome.payload))
        return 0 if outcome.passed else 1
    result = outcome.result
    print(result.to_text())
    if result.spec.report is not None and result.simulation is not None:
        print()
        print(result.spec.report(result))
    return 0 if result.passed else 1


def run_sweep_cli(
    name: str,
    grid: dict[str, list[Any]],
    *,
    steps: int | None = None,
    csv: str | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    resume: bool = False,
    publish: bool = False,
    lease_ttl: float = api.DEFAULT_LEASE_TTL,
    adaptive: str | None = None,
    coarse_stride: int = 2,
    refine_fraction: float = 0.5,
    kernel: str | None = None,
    dtype: str | None = None,
    layout: str | None = None,
    max_attempts: int = api.DEFAULT_MAX_ATTEMPTS,
    telemetry: bool = False,
    as_json: bool = False,
) -> int:
    """Run (or publish) a sweep and print the result, return an exit code.

    Pure dispatch over :func:`repro.api.run_sweep` /
    :func:`repro.api.publish_sweep` — see those for the semantics of
    ``jobs``/``cache_dir``/``resume``/``adaptive``/``telemetry``.
    ``as_json`` prints the canonical sweep envelope (identical bytes to
    a warm ``POST /v1/sweep`` body) instead of the comparison table.
    """
    api.check_sweep_options(
        cache_dir=cache_dir,
        publish=publish,
        resume=resume,
        adaptive=adaptive,
        telemetry=telemetry,
    )
    if publish:
        plan, _queue = api.publish_sweep(
            name,
            grid,
            cache_dir=cache_dir,
            steps=steps,
            kernel=kernel,
            dtype=dtype,
            layout=layout,
            resume=resume,
        )
        if as_json:
            print(
                render_response(
                    "publish",
                    {
                        "case": plan.case,
                        "variants": len(plan),
                        "cache_dir": str(cache_dir),
                    },
                )
            )
            return 0
        print(f"published {len(plan)} variant(s) of {plan.case} to {cache_dir}")
        hint = " --telemetry" if telemetry else ""
        print(
            f"run workers with: python -m repro sweep-worker "
            f"--cache-dir {cache_dir}{hint}"
        )
        return 0

    result = api.run_sweep(
        name,
        grid,
        steps=steps,
        jobs=jobs,
        cache_dir=cache_dir,
        resume=resume,
        lease_ttl=lease_ttl,
        adaptive=adaptive,
        coarse_stride=coarse_stride,
        refine_fraction=refine_fraction,
        kernel=kernel,
        dtype=dtype,
        layout=layout,
        max_attempts=max_attempts,
        telemetry=telemetry,
    )

    if csv is not None:
        with open(csv, "w") as handle:
            handle.write(result.to_csv())
    if as_json:
        print(render_response("sweep", api.sweep_payload(result)))
        if csv is not None:
            print(f"wrote {csv}", file=sys.stderr)
        return 0 if result.passed else 1
    print(result.to_table(provenance=True))
    if result.provenance is not None:
        failed = result.failed_count
        cached = len(result.results) - result.runs_executed - failed
        failed_note = f", {failed} FAILED (quarantined)" if failed else ""
        print(
            f"{len(result.results)} variants: {result.runs_executed} run, "
            f"{cached} cached{failed_note}"
        )
    if result.grid_total is not None and result.stages is not None:
        coarse = sum(1 for stage in result.stages if stage == "coarse")
        refined = len(result.stages) - coarse
        print(
            f"sampled {len(result.results)}/{result.grid_total} grid "
            f"points ({coarse} coarse + {refined} refined)"
        )
    if csv is not None:
        print(f"wrote {csv}")
    return 0 if result.passed else 1


def run_status_cli(cache_dir: str, *, as_json: bool = False) -> int:
    """Print a sweep cache directory's progress/lease report."""
    status = api.sweep_status(cache_dir)
    if as_json:
        print(render_response("fleet", status.to_payload()))
    else:
        print(status.summary())
    return 0


def run_worker_cli(
    cache_dir: str,
    *,
    worker_id: str | None = None,
    lease_ttl: float = api.DEFAULT_LEASE_TTL,
    poll: float = 0.5,
    max_variants: int | None = None,
    wait: bool = False,
    follow: bool = False,
    max_attempts: int = api.DEFAULT_MAX_ATTEMPTS,
    retry_backoff: float = 0.5,
    idle_timeout: float | None = None,
    telemetry: bool = False,
    as_json: bool = False,
) -> int:
    """Run one sweep worker against a published sweep; print its report.

    ``follow`` keeps the worker alive after the queue drains, polling
    for work appended by a ``repro serve`` front end.
    """
    report = api.run_worker(
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
        telemetry=telemetry,
    )
    if as_json:
        print(render_response("worker-report", report.to_payload()))
    else:
        print(report.summary())
    return 0


def run_serve_cli(
    cache_dir: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8752,
    max_inflight: int | None = None,
    request_timeout: float | None = None,
    telemetry: bool = False,
) -> int:
    """Serve the scenario substrate over HTTP until interrupted.

    SIGTERM (and Ctrl-C) drain gracefully: the server stops admitting
    requests (503 + Retry-After), finishes the ones in flight, then
    closes the socket.
    """
    import signal
    import threading

    from ..serve import create_server

    extras: dict[str, Any] = {}
    if max_inflight is not None:
        extras["max_inflight"] = max_inflight
    if request_timeout is not None:
        extras["request_timeout"] = request_timeout
    server = create_server(
        cache_dir, host=host, port=port, telemetry=telemetry, **extras
    )
    print(f"serving {cache_dir} at {server.url}")
    print("endpoints: POST /v1/case /v1/sweep; GET /v1/health /v1/cases")
    print("           GET /v1/fleet /v1/jobs/<id> /v1/jobs/<id>/result")

    def _terminate(signum: int, frame: Any) -> None:
        server.draining = True
        # serve_forever must be stopped from another thread — shutdown()
        # blocks until the serving loop exits, which would deadlock here.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        pass  # not the main thread (tests drive this inline)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.draining = True
        drained = server.drain(timeout=10.0)
        server.server_close()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        print(
            "drained and stopped"
            if drained
            else "stopped with request(s) still in flight"
        )
    return 0


def run_events_cli(
    cache_dir: str,
    *,
    name: str | None = None,
    etype: str | None = None,
    process: str | None = None,
    tail: int | None = None,
) -> int:
    """Print a run's recorded events (filtered, one line each)."""
    from ..telemetry.aggregate import tail_events

    lines, aggregate = tail_events(
        cache_dir, name=name, etype=etype, process=process, tail=tail
    )
    if not aggregate.files:
        print(
            f"no telemetry under {cache_dir} (record some with "
            "`repro sweep ... --telemetry`)"
        )
        return 1
    for line in lines:
        print(line)
    shown = len(lines)
    summary = (
        f"{shown} of {len(aggregate.events)} event(s) from "
        f"{len(aggregate.files)} file(s)"
    )
    if aggregate.dropped:
        summary += f", {aggregate.dropped} corrupt line(s) dropped"
    print(summary)
    return 0


def run_perf_model_cli(
    *,
    lattice: str,
    dtype: str = "float64",
    shape: str | None = None,
    steps: int | None = None,
) -> int:
    """``repro perf-model predict``: the paper's Eq. 5 ceiling
    ``Bm / B(Q)`` on this host via :func:`repro.api.predict_cost`, and
    the wall-clock at that ceiling when shape and steps are given."""
    grid = tuple(int(s) for s in shape.split(",")) if shape else None
    estimate = api.predict_cost(
        lattice=lattice, dtype=dtype, shape=grid, steps=steps
    )
    line = (
        f"{estimate.lattice} {dtype}: {estimate.mflups:.2f} MFLUP/s ceiling "
        f"(Bm {estimate.bandwidth / 1e9:.2f} GB/s / "
        f"B(Q) {estimate.bytes_per_cell} B)"
    )
    if estimate.seconds is not None:
        line += (
            f", >= {estimate.seconds:.3g}s for {steps} steps on "
            f"{'x'.join(map(str, grid))}"
        )
    print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Scenario subsystem: registered application workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cases", help="list the registered case catalog")

    case = sub.add_parser("case", help="run one registered case")
    case.add_argument("name", help="case name (see `cases`)")
    case.add_argument("--steps", type=int, default=None, help="override steps")
    case.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a spec field or case parameter (repeatable)",
    )
    case.add_argument(
        "--kernel",
        default=None,
        help="stream/collide kernel: planned (the case default; it also "
        "streams cases with a custom collision), naive (the executable "
        "spec, BGK only), or auto (an alias for planned); sparse cases run "
        "planned only",
    )
    case.add_argument(
        "--dtype",
        default=None,
        choices=("float32", "float64"),
        help="population precision (float32 halves bytes per cell)",
    )
    case.add_argument(
        "--layout",
        default=None,
        choices=("soa", "aos"),
        help="field memory layout: soa (velocity-major, default) or aos "
        "(cell-major; requires the planned kernel, results are "
        "byte-identical per dtype)",
    )
    case.add_argument("--checkpoint", default=None, help="restart file to write")
    case.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="also checkpoint every N steps (requires --checkpoint)",
    )
    case.add_argument("--resume", default=None, help="restart file to resume from")
    case.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="serve a warm fingerprint from DIR's result cache (zero "
        "steps executed) and commit fresh runs back to it",
    )
    case.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the canonical schema-versioned JSON envelope instead "
        "of the text summary (byte-identical to the serve API body)",
    )

    sweep = sub.add_parser("sweep", help="run a parameter sweep over one case")
    sweep.add_argument("name", help="case name (see `cases`)")
    sweep.add_argument(
        "--param",
        dest="params",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        required=True,
        help="parameter grid axis (repeatable)",
    )
    sweep.add_argument("--steps", type=int, default=None, help="override steps")
    sweep.add_argument(
        "--kernel",
        default=None,
        help="fixed kernel for every variant (sweep *over* kernels with "
        "--param kernel=naive,planned)",
    )
    sweep.add_argument(
        "--dtype",
        default=None,
        choices=("float32", "float64"),
        help="fixed population precision for every variant (sweep over "
        "precisions with --param dtype=float32,float64)",
    )
    sweep.add_argument(
        "--layout",
        default=None,
        choices=("soa", "aos"),
        help="fixed field layout for every variant (sweep over layouts "
        "with --param layout=soa,aos)",
    )
    sweep.add_argument("--csv", default=None, help="also write the table as CSV")
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run variants on N local lease workers over --cache-dir (a "
        "temporary directory without one), where a raising variant is "
        "retried, then quarantined as a FAILED row; same table, bit for "
        "bit (default: 1, inline, where a raising variant aborts)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache per-variant results under DIR keyed by spec fingerprint",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted sweep recorded under DIR/sweeps/ "
        "(requires --cache-dir)",
    )
    sweep.add_argument(
        "--publish",
        action="store_true",
        help="add the work items (DIR/queue/) and the sweep record "
        "(DIR/sweeps/) under --cache-dir and exit; run the variants with "
        "`sweep-worker` processes, possibly on other hosts",
    )
    sweep.add_argument(
        "--lease-ttl",
        type=float,
        default=api.DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help="lease lifetime of the workers --jobs N starts: how long a "
        "dead worker's variant stays blocked (default: "
        f"{api.DEFAULT_LEASE_TTL:g}); for a published sweep, pass "
        "`sweep-worker --lease-ttl` instead",
    )
    sweep.add_argument(
        "--adaptive",
        default=None,
        metavar="OBSERVABLE",
        help="sample the grid adaptively instead of exhaustively: coarse "
        "pass, then refine where OBSERVABLE (a metric name or "
        "final_<series>) changes fastest",
    )
    sweep.add_argument(
        "--coarse-stride",
        type=int,
        default=2,
        metavar="K",
        help="adaptive coarse pass keeps every K-th value per axis "
        "(default: 2)",
    )
    sweep.add_argument(
        "--refine-fraction",
        type=float,
        default=0.5,
        metavar="F",
        help="fraction of refinable segments, fastest-changing first, "
        "to fill in (default: 0.5)",
    )
    sweep.add_argument(
        "--max-attempts",
        type=int,
        default=api.DEFAULT_MAX_ATTEMPTS,
        metavar="N",
        help="attempts per variant before the workers --jobs N starts "
        "quarantine it into a FAILED row instead of retrying (default: "
        f"{api.DEFAULT_MAX_ATTEMPTS})",
    )
    sweep.add_argument(
        "--telemetry",
        action="store_true",
        help="record structured JSONL events (variant spans, cache "
        "counters, worker heartbeats) under <cache-dir>/telemetry; "
        "inspect with `events` and `sweep-status` (requires --cache-dir)",
    )
    sweep.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the canonical sweep JSON envelope instead of the "
        "comparison table (byte-identical to the serve API body)",
    )

    status = sub.add_parser(
        "sweep-status",
        help="report a published/running sweep's progress and leases "
        "(read-only view over --cache-dir)",
    )
    status.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="the sweep's shared cache directory",
    )
    status.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the fleet rollup as a JSON envelope (the same body "
        "the serve API's GET /v1/fleet answers with)",
    )

    worker = sub.add_parser(
        "sweep-worker",
        help="claim and run variants of a sweep published with "
        "`sweep --publish` (launchable on any host sharing the cache dir)",
    )
    worker.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="the shared cache directory the sweep was published to",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="label recorded in leases and the done/ markers of the "
        "variants it commits (default: host:pid:nonce)",
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=api.DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help="seconds before this worker's unreleased leases count as "
        "stale and peers may reclaim them",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="sleep between passes while waiting on peer-held work "
        "(with --wait)",
    )
    worker.add_argument(
        "--max-variants",
        type=int,
        default=None,
        metavar="N",
        help="exit after running N variants (default: no limit)",
    )
    worker.add_argument(
        "--wait",
        action="store_true",
        help="poll until the sweep completes instead of exiting when only "
        "peer-held work remains (also reclaims stale leases of dead peers)",
    )
    worker.add_argument(
        "--follow",
        action="store_true",
        help="never exit for lack of work: keep polling for variants "
        "appended to the queue (the mode a `repro serve` fleet runs in; "
        "implies --wait)",
    )
    worker.add_argument(
        "--max-attempts",
        type=int,
        default=api.DEFAULT_MAX_ATTEMPTS,
        metavar="N",
        help="failed attempts per variant (across the whole fleet, via "
        "the failure ledger) before it is quarantined (default: "
        f"{api.DEFAULT_MAX_ATTEMPTS})",
    )
    worker.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base delay before retrying a failed variant; doubles per "
        "attempt, capped at 60s (default: 0.5)",
    )
    worker.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --wait/--follow, exit once no variant has been claimed "
        "for this long (default: never)",
    )
    worker.add_argument(
        "--telemetry",
        action="store_true",
        help="record this worker's structured events under "
        "<cache-dir>/telemetry (one JSONL file per worker process)",
    )
    worker.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the exit report as a JSON envelope instead of text",
    )

    serve = sub.add_parser(
        "serve",
        help="serve cases and sweeps over HTTP: warm fingerprints answer "
        "from the result cache, cold ones are queued for sweep-worker "
        "processes (see README 'Serving')",
    )
    serve.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="shared cache directory answers are served from and cold "
        "work is queued under",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8752,
        help="bind port; 0 picks a free one (default: 8752)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="refuse requests with 503 + Retry-After beyond N concurrent "
        "ones (default: 32)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request socket timeout; slow or stalled clients are "
        "disconnected instead of pinning a handler thread (default: 30)",
    )
    serve.add_argument(
        "--telemetry",
        action="store_true",
        help="record request spans, serve cache counters and queue-depth "
        "events under <cache-dir>/telemetry",
    )

    events = sub.add_parser(
        "events",
        help="tail a run's structured telemetry events "
        "(read-only view over --cache-dir)",
    )
    events.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="the run's cache directory (events live under DIR/telemetry)",
    )
    events.add_argument(
        "--name",
        default=None,
        help="only events whose name contains this substring "
        "(e.g. phase., cache., variant)",
    )
    events.add_argument(
        "--type",
        dest="etype",
        default=None,
        choices=("meta", "span", "count", "event"),
        help="only events of this type",
    )
    events.add_argument(
        "--process",
        default=None,
        help="only events from processes whose label contains this "
        "substring (worker ids, host:pid)",
    )
    events.add_argument(
        "--tail",
        type=int,
        default=None,
        metavar="N",
        help="only the last N matching events (default: all)",
    )

    perf_model = sub.add_parser(
        "perf-model",
        help="the paper's Eq. 5 roofline ceiling on this host",
    )
    perf_model.add_argument(
        "action",
        choices=("predict",),
        help="predict: Bm / B(Q) with Bm from a copy probe run now",
    )
    perf_model.add_argument(
        "--lattice", required=True, help="lattice to evaluate, e.g. D3Q19"
    )
    perf_model.add_argument(
        "--dtype",
        default="float64",
        choices=("float32", "float64"),
        help="population precision (float32 halves B(Q))",
    )
    perf_model.add_argument(
        "--shape",
        default=None,
        metavar="X,Y,Z",
        help="grid shape, for the wall-clock at the ceiling",
    )
    perf_model.add_argument(
        "--steps",
        type=int,
        default=None,
        help="step count, for the wall-clock at the ceiling",
    )
    return parser


def main(argv: Sequence[str]) -> int:
    """Entry point for the ``cases``/``case``/``sweep`` subcommands."""
    args = build_parser().parse_args(list(argv))
    try:
        if args.command == "cases":
            from .registry import catalog_table

            print(catalog_table())
            return 0
        if args.command == "case":
            return run_case_cli(
                args.name,
                steps=args.steps,
                overrides=_parse_assignments(args.assignments),
                checkpoint=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                resume=args.resume,
                kernel=args.kernel,
                dtype=args.dtype,
                layout=args.layout,
                cache_dir=args.cache_dir,
                as_json=args.as_json,
            )
        if args.command == "sweep-status":
            return run_status_cli(args.cache_dir, as_json=args.as_json)
        if args.command == "events":
            return run_events_cli(
                args.cache_dir,
                name=args.name,
                etype=args.etype,
                process=args.process,
                tail=args.tail,
            )
        if args.command == "perf-model":
            return run_perf_model_cli(
                lattice=args.lattice,
                dtype=args.dtype,
                shape=args.shape,
                steps=args.steps,
            )
        if args.command == "sweep-worker":
            return run_worker_cli(
                args.cache_dir,
                worker_id=args.worker_id,
                lease_ttl=args.lease_ttl,
                poll=args.poll,
                max_variants=args.max_variants,
                wait=args.wait,
                follow=args.follow,
                max_attempts=args.max_attempts,
                retry_backoff=args.retry_backoff,
                idle_timeout=args.idle_timeout,
                telemetry=args.telemetry,
                as_json=args.as_json,
            )
        if args.command == "serve":
            return run_serve_cli(
                args.cache_dir,
                host=args.host,
                port=args.port,
                max_inflight=args.max_inflight,
                request_timeout=args.request_timeout,
                telemetry=args.telemetry,
            )
        return run_sweep_cli(
            args.name,
            _parse_grid(args.params),
            steps=args.steps,
            csv=args.csv,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            resume=args.resume,
            publish=args.publish,
            lease_ttl=args.lease_ttl,
            adaptive=args.adaptive,
            coarse_stride=args.coarse_stride,
            refine_fraction=args.refine_fraction,
            kernel=args.kernel,
            dtype=args.dtype,
            layout=args.layout,
            max_attempts=args.max_attempts,
            telemetry=args.telemetry,
            as_json=args.as_json,
        )
    except (ReproError, OSError) as exc:
        # ReproError covers ScenarioError plus the LatticeError family a
        # kernel or dtype selection can raise while building the case.
        print(f"error: {exc}", file=sys.stderr)
        return 2
