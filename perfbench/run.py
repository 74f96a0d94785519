#!/usr/bin/env python3
"""End-to-end benchmark of the LBM reproduction: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-session --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``artery-solve``,
``sweep-session``, ``serve-mix``.  Every run happens in fresh child
processes with a run-private environment under
``.perfbench-out/run-*/`` (deleted afterwards): ``REPRO_*`` variables
removed, the kernel cache, ``XDG_CACHE_HOME``, ``TMPDIR``, the bytecode
cache and every result cache pointed inside it, and one BLAS/OpenMP
thread.  A traced run also keeps its spans in
``.perfbench-out/traces/<workload>-seed<n>.spans.jsonl``.

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric, each on its own line with unit and sample count; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 means the run completed (its
correctness is in the JSON); anything else means no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("artery-solve", "sweep-session", "serve-mix")

#: An untraced run starts this many workload processes one after another
#: (each a different seeded ``part``), with one set-up-only process
#: before and after them.  Each metric is computed per process and the
#: median over processes reported, so a burst of host slowness (on a
#: 2-vCPU Xeon VM CPU speed swung by ±20% within seconds) moves one process, not
#: the run; ``setup_s`` is the median of all set-up samples, spread over
#: the run (one sample moved by ~10% between runs).  artery-solve gets
#: fewer processes because each one solves for ~11 s.
PROCESSES = {"artery-solve": 3, "sweep-session": 5, "serve-mix": 5}
#: Every child must finish within this many seconds of the run's start.
DEADLINE_S = 170.0
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "hit_p50_ms": "ms",
    "hit_tail_ms": "ms",
    "miss_p50_ms": "ms",
    "miss_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}

PER_LAYER_UNITS = {
    "core.stream_s": "s",
    "core.boundary_s": "s",
    "core.collide_s": "s",
    "core.steps": "count",
    "core.mflups": "MFLUP/s",
    "core.bare_kernel_mflups": "MFLUP/s",
    "core.overhead_factor": "ratio",
    "core.minor_faults_per_step": "faults/step",
    "core.computed_bytes_per_step": "B/step",
    "runner.build_s": "s",
    "runner.self_s": "s",
    "spec.fingerprint_calls": "count",
    "spec.fingerprint_s": "s",
    "io.canonical_json_calls": "count",
    "io.canonical_json_s": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "fraction",
    "cache.lookup_s": "s",
    "cache.puts": "count",
    "cache.put_s": "s",
    "cache.bytes_written": "B",
    "cache.manifest_saves": "count",
    "cache.manifest_s": "s",
    "executor.self_s": "s",
    "sweep.plan_s": "s",
    "api.self_s": "s",
    "workers.drain_s": "s",
    "workers.probes_per_completion": "probes/variant",
    "scheduler.queue_items": "count",
    "scheduler.queue_s": "s",
    "scheduler.lease_s": "s",
    "ledger.load_s": "s",
    "serve.jobstore_s": "s",
    "serve.http_overhead_ms": "ms",
    "api.case_request_s": "s",
    "model.predict_s": "s",
    "serve.non_2xx": "count",
    "serve.shed_503": "count",
    "proc.cpu_s": "s",
    "proc.involuntary_ctx_switches": "count",
    "trace.overhead_frac": "fraction",
    "trace.uncovered_frac": "fraction",
    "trace.sleep_s": "s",
}

#: ``Simulation.step`` spans must cover the ``Simulation.timings`` totals
#: and may exceed them only by the wrapper's own cost.
STEP_SPAN_SLACK = 1.10


class BenchError(RuntimeError):
    """The run could not produce a result (no JSON is printed)."""


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    that percentile.  With fewer than 20 samples that percentile would
    lie below the median, so the tail is the maximum (p100) instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def child_env(checkout: Path, root: Path, pycache: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    dirs = {name: root / name for name in ("kernel-cache", "xdg-cache", "tmp")}
    for path in dirs.values():
        path.mkdir(parents=True)
    env.update(
        PYTHONPATH=os.pathsep.join(
            p for p in (str(checkout / "src"), os.environ.get("PYTHONPATH")) if p),
        REPRO_KERNEL_CACHE_DIR=str(dirs["kernel-cache"]),
        XDG_CACHE_HOME=str(dirs["xdg-cache"]),
        TMPDIR=str(dirs["tmp"]),
        PYTHONPYCACHEPREFIX=str(pycache),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        PYTHONHASHSEED="0",
    )
    return env


class Runner:
    """Starts the child processes of one run, each in its own fresh root."""

    def __init__(self, args, checkout: Path, run_root: Path) -> None:
        self.args, self.checkout, self.run_root = args, checkout, run_root
        self.deadline = time.monotonic() + DEADLINE_S
        self.children = 0
        self.pycache = run_root / "pyc"

    def compile(self) -> None:
        """Fill the run's bytecode cache before anything is timed: the
        program and the benchmark by ``compileall``, the standard library
        and numpy by one untimed set-up child."""
        env = dict(os.environ, PYTHONPYCACHEPREFIX=str(self.pycache))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
                cwd=self.checkout, env=env, stdout=subprocess.DEVNULL,
                timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"compileall passed the {DEADLINE_S:.0f} s deadline")
        if done.returncode != 0:
            raise BenchError("compileall failed")
        self.child("setup")

    def child(self, mode: str, part: int = 0,
              corrupt: bool = False) -> tuple[float, dict | None]:
        """Run one child; returns its set-up seconds and its result."""
        self.children += 1
        root = self.run_root / f"child-{self.children}"
        env = child_env(self.checkout, root, self.pycache)
        a = self.args
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--part", str(part), "--seconds", str(a.seconds),
               "--root", str(root), "--mode", mode]
        if a.small:
            cmd.append("--small")
        if corrupt:
            cmd.append("--corrupt")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.checkout, env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - t0
            if line.strip() != "ready":
                raise BenchError(f"{mode} child did not get ready")
            proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child passed the {DEADLINE_S:.0f} s deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        if mode == "setup":
            return setup_s, None
        result = json.loads((root / "result.json").read_text())
        if mode == "trace":
            traces = self.checkout / ".perfbench-out" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(root / "spans.jsonl",
                            traces / f"{a.workload}-seed{a.seed}.spans.jsonl")
        return setup_s, result

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run passed the {DEADLINE_S:.0f} s deadline")
        return left


def src_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(checkout: Path) -> str | None:
    if not (checkout / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def failures(result: dict) -> int:
    return sum(1 for _, _, ok, _ in result["ops"] if not ok)


def end_to_end(results: list[dict], setup: list[float]):
    """The end-to-end metrics of one untraced run: ``{name: (value, n, note)}``.

    Per-op metrics are computed in each process and the median over the
    processes reported; their n counts the ops of all processes."""
    attempted = sum(len(r["ops"]) for r in results)
    processes = len(results)
    per_process = f"median of {processes} processes"
    metrics = {
        "setup_s": (statistics.median(setup), len(setup), "median of fresh processes"),
        "time_to_solution_s": (
            statistics.median(r["time_to_solution_s"] for r in results), processes,
            per_process),
    }
    for cls in ("hit", "miss"):
        per = [[ms for c, ms, _, _ in r["ops"] if c == cls] for r in results]
        if not all(per):
            raise BenchError(f"a workload process ran no {cls} ops")
        tails = [tail(values) for values in per]
        n = sum(len(values) for values in per)
        metrics[f"{cls}_p50_ms"] = (
            statistics.median(statistics.median(v) for v in per), n, f"p50, {per_process}")
        metrics[f"{cls}_tail_ms"] = (
            statistics.median(value for value, _ in tails), n,
            f"p{statistics.median(p for _, p in tails):.1f}, {per_process}")
    metrics["peak_rss_mb"] = (
        statistics.median(r["peak_rss_mb"] for r in results), processes,
        f"ru_maxrss, {per_process}")
    failed = sum(failures(r) for r in results)
    metrics["success_rate"] = ((attempted - failed) / attempted, attempted, "1 - error_rate")
    return metrics


def print_rows(rows: dict, units: dict) -> None:
    for name, (value, n, note) in rows.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]:<15} n={n:<6} {note}")


def print_failures(result: dict, label: str) -> None:
    bad = [(cls, why) for cls, _, ok, why in result["ops"] if not ok]
    for cls, why in bad[:10]:
        print(f"  FAILED {label} {cls} op: {why}")
    if len(bad) > 10:
        print(f"  ... and {len(bad) - 10} more failed {label} ops")


def print_core(results: list[dict]) -> None:
    """The untraced ``Simulation.timings`` rows (artery-solve)."""
    cores = [r["core"] for r in results if r["core"] and r["core"]["steps"]]
    if not cores:
        return
    replays = [ms for r in results for c, ms, _, _ in r["ops"] if c == "hit"]
    print(f"hit rows: {len(replays)} warm replays, {sum(replays) / 1e3:.4f} s in all, "
          "made after time_to_solution_s and not part of it")
    core = {k: sum(c[k] for c in cores) for k in ("stream_s", "boundary_s", "collide_s",
                                                   "steps", "minflt")}
    core["cells"] = cores[0]["cells"]
    core["mflups"] = [m for c in cores for m in c["mflups"]]
    phases = core["stream_s"] + core["boundary_s"] + core["collide_s"]
    print("core rows from Simulation.timings and CaseResult.metrics:")
    print(f"  core.stream_s={core['stream_s']:.4f} core.boundary_s={core['boundary_s']:.4f} "
          f"core.collide_s={core['collide_s']:.4f} core.steps={core['steps']} "
          f"core.mflups={core['steps'] * core['cells'] / phases / 1e6:.4f} "
          f"(per solve {', '.join(f'{m:.4f}' for m in core['mflups'])}) "
          f"minor faults/step over the solve={core['minflt'] / core['steps']:.0f}")


def layer_rows(traced: dict, untraced: dict) -> dict:
    layers = dict(traced["layers"])
    status = {int(k): v for k, v in traced["status"].items()}
    layers["serve.non_2xx"] = sum(v for k, v in status.items() if not 200 <= k < 300)
    layers["serve.shed_503"] = status.get(503, 0)
    layers["proc.cpu_s"] = traced["cpu_s"]
    layers["proc.involuntary_ctx_switches"] = traced["involuntary_ctx_switches"]
    layers["trace.overhead_frac"] = (
        traced["time_to_solution_s"] / untraced["time_to_solution_s"] - 1.0)
    n = len(traced["ops"])
    return {name: (layers[name], n, "traced run") for name in PER_LAYER_UNITS}


def print_accounting(traced: dict) -> bool:
    """Where the traced ops' time went; returns whether the trace is valid."""
    notes = traced["trace_notes"]
    op_time = notes["op_time_s"]
    print(f"self time by span over {op_time:.3f} s of ops:")
    ranked = sorted(notes["self_s_by_span"].items(), key=lambda kv: -kv[1])
    for name, seconds in ranked:
        print(f"  {name:<20} {seconds:10.4f} s {100 * seconds / op_time:6.2f}%"
              f"  calls={notes['calls_by_span'][name]}")
    covered = sum(s for _, s in ranked)
    print(f"  {'(uncovered)':<20} {op_time - covered:10.4f} s "
          f"{100 * (op_time - covered) / op_time:6.2f}%")
    for cls, fracs in sorted(notes["uncovered_frac_by_class"].items()):
        print(f"  uncovered share per {cls} op: median {statistics.median(fracs):.4f}, "
              f"max {max(fracs):.4f}, n={len(fracs)}")
    layers = traced["layers"]
    if notes["updates"]:
        stream_collide = layers["core.stream_s"] + layers["core.collide_s"]
        print("gap between the bare planned kernel and the case phases:")
        print(f"  {notes['updates']} lattice updates: bare kernel "
              f"{layers['core.bare_kernel_mflups']:.4f} MFLUP/s would take "
              f"{notes['pure_kernel_s']:.4f} s; the case took stream "
              f"{layers['core.stream_s']:.4f} + boundary {layers['core.boundary_s']:.4f} + "
              f"collide {layers['core.collide_s']:.4f} = {notes['step_timings_s']:.4f} s "
              f"({layers['core.mflups']:.4f} MFLUP/s, overhead factor "
              f"{layers['core.overhead_factor']:.3f})")
        print(f"  gap {notes['step_timings_s'] - notes['pure_kernel_s']:.4f} s = boundary "
              f"{layers['core.boundary_s']:.4f} + stream/collide beyond the bare kernel "
              f"{stream_collide - notes['pure_kernel_s']:.4f}; around the steps "
              f"runner.build {layers['runner.build_s']:.4f} s, runner.self "
              f"{layers['runner.self_s']:.4f} s, Simulation.run loop "
              f"{notes['self_s_by_span'].get('core.run', 0.0):.4f} s")
        for entry in traced["bare_kernel"]:
            print(f"  bare kernel {entry['lattice']} {entry['shape']} {entry['dtype']}: "
                  f"{entry['mflups']:.4f} MFLUP/s")
    valid = True
    if layers["trace.sleep_s"] != 0:
        print(f"  INVALID: {layers['trace.sleep_s']:.6f} s of time.sleep inside ops")
        valid = False
    spans, timings = notes["step_span_s"], notes["step_timings_s"]
    if timings:
        ratio = spans / timings
        print(f"  Simulation.step spans {spans:.4f} s vs Simulation.timings "
              f"{timings:.4f} s (ratio {ratio:.4f})")
        if not 1.0 <= ratio <= STEP_SPAN_SLACK:
            print("  INVALID: step spans do not add up to Simulation.timings")
            valid = False
    return valid


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="scales each workload's fixed op counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced op counts and steps (self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt the first hit answer checked (self-test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    run_root = checkout / ".perfbench-out" / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    run_root.mkdir(parents=True)
    try:
        runner = Runner(args, checkout, run_root)
        runner.compile()
        if args.trace:
            _, untraced = runner.child("run", corrupt=args.corrupt)
            _, traced = runner.child("trace", corrupt=args.corrupt)
            results = [untraced, traced]
        else:
            setup = [runner.child("setup")[0]]
            results = []
            for part in range(PROCESSES[args.workload]):
                setup_s, result = runner.child("run", part, corrupt=args.corrupt and not part)
                setup.append(setup_s)
                results.append(result)
            setup.append(runner.child("setup")[0])
        rows = layer_rows(results[1], results[0]) if args.trace else end_to_end(results, setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_root.parent.rmdir()  # only when no traces are kept there

    attempted = sum(len(r["ops"]) for r in results)
    failed = sum(failures(r) for r in results)
    measured = results[:1] if args.trace else results
    counts: dict[str, int] = {}
    for result in measured:
        for cls, *_ in result["ops"]:
            counts[cls] = counts.get(cls, 0) + 1
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small,
        "host": platform.node(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": results[0]["numpy"],
        "blas_threads": BLAS_THREADS, "commit": commit(checkout),
        "src_sha256": src_digest(checkout), "ops_per_class": counts,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    labels = ("untraced", "traced") if args.trace else [f"part {i}" for i in range(len(results))]
    for label, result in zip(labels, results):
        print_failures(result, label)
        p50 = {cls: statistics.median([ms for c, ms, _, _ in result["ops"] if c == cls] or [0.0])
               for cls in ("hit", "miss")}
        print(f"  {label}: time_to_solution {result['time_to_solution_s']:.4f} s, "
              f"hit p50 {p50['hit']:.4f} ms, miss p50 {p50['miss']:.4f} ms")
    print_core(measured)
    correct = failed == 0
    if args.trace:
        print("per-layer metrics:")
        print_rows(rows, PER_LAYER_UNITS)
        correct = print_accounting(results[1]) and correct
        units = PER_LAYER_UNITS
    else:
        provenance["tail_percentiles"] = {
            name: note for name, (_, _, note) in rows.items() if name.endswith("_tail_ms")}
        print("end-to-end metrics:")
        print_rows(rows, END_TO_END_UNITS)
        print_rows({"error_rate": (1.0 - rows["success_rate"][0], attempted,
                                   "failed / attempted (not in the JSON: it reads 0)")},
                   {"error_rate": "fraction"})
        units = END_TO_END_UNITS
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in rows.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
